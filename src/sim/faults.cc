#include "src/sim/faults.h"

#include "src/base/strings.h"
#include "src/obs/context.h"

namespace plan9 {

FaultProfile FaultProfile::BurstLoss(double avg_loss) {
  // A bursty channel whose long-run loss averages roughly avg_loss: the
  // chain spends ~1/8 of its time in the Bad state where most frames die.
  FaultProfile p;
  p.loss_good = avg_loss / 4;
  p.loss_bad = std::min(1.0, avg_loss * 6);
  p.p_good_to_bad = 0.02;
  p.p_bad_to_good = 0.15;
  return p;
}

FaultProfile FaultProfile::Reorder(double rate, std::chrono::microseconds jitter) {
  FaultProfile p;
  p.reorder_rate = rate;
  p.reorder_jitter = jitter;
  return p;
}

FaultProfile FaultProfile::Hostile() {
  FaultProfile p = BurstLoss(0.10);
  p.reorder_rate = 0.05;
  p.reorder_jitter = std::chrono::microseconds(2000);
  p.dup_rate = 0.02;
  p.corrupt_rate = 0.01;
  return p;
}

FaultInjector::FaultInjector(const FaultProfile& profile, uint64_t seed,
                             TimerWheel::Clock::time_point epoch)
    : profile_(profile), rng_(seed ^ 0xfa171a7e5eedULL), epoch_(epoch) {}

void FaultInjector::Reconfigure(const FaultProfile& profile, uint64_t seed,
                                TimerWheel::Clock::time_point epoch) {
  profile_ = profile;
  rng_ = Rng(seed ^ 0xfa171a7e5eedULL);
  epoch_ = epoch;
  bad_state_ = false;
  forced_down_ = false;
  stats_.Reset();
}

bool FaultInjector::ScriptedDown(TimerWheel::Clock::time_point now) const {
  auto since = std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_);
  for (const auto& w : profile_.partitions) {
    if (since >= w.start && since < w.start + w.duration) {
      return true;
    }
  }
  if (profile_.flap_period.count() > 0 && profile_.flap_down.count() > 0) {
    auto phase = since.count() % profile_.flap_period.count();
    if (phase < profile_.flap_down.count()) {
      return true;
    }
  }
  return false;
}

FaultInjector::Decision FaultInjector::Evaluate(TimerWheel::Clock::time_point now,
                                                size_t frame_size) {
  // A medium belongs to no one node: its faults land in the root's ring.
  obs::FlightRecorder& trace = obs::Context::Root().recorder();
  Decision d;
  if (down(now)) {
    stats_.drops_partition.Inc();
    P9_TRACE(trace, obs::TraceKind::kFault, "sim.fault", "drop partition", frame_size);
    d.drop = true;
    return d;
  }
  if (!profile_.Enabled()) {
    return d;
  }
  // Advance the Gilbert–Elliott chain, then sample loss in the new state.
  // The chain advances on every frame even when both loss rates are zero so
  // that adding a second fault mode to a profile does not perturb the
  // replayed decision sequence of the first.
  if (bad_state_) {
    if (rng_.Chance(profile_.p_bad_to_good)) {
      bad_state_ = false;
    }
  } else {
    if (rng_.Chance(profile_.p_good_to_bad)) {
      bad_state_ = true;
      stats_.bad_state_entries.Inc();
    }
  }
  double loss = bad_state_ ? profile_.loss_bad : profile_.loss_good;
  if (loss > 0 && rng_.Chance(loss)) {
    stats_.drops_burst.Inc();
    P9_TRACE(trace, obs::TraceKind::kFault, "sim.fault", "drop burst", frame_size);
    d.drop = true;
    return d;
  }
  if (profile_.corrupt_rate > 0 && rng_.Chance(profile_.corrupt_rate) &&
      frame_size > 0) {
    d.corrupt = true;
    d.corrupt_bit = rng_.Below(frame_size * 8);
    stats_.corruptions.Inc();
    P9_TRACE(trace, obs::TraceKind::kFault, "sim.fault", "corrupt bit", d.corrupt_bit);
  }
  if (profile_.dup_rate > 0 && rng_.Chance(profile_.dup_rate)) {
    d.duplicate = true;
    stats_.dups.Inc();
    P9_TRACE(trace, obs::TraceKind::kFault, "sim.fault", "duplicate", frame_size);
  }
  if (profile_.reorder_rate > 0 && rng_.Chance(profile_.reorder_rate) &&
      profile_.reorder_jitter.count() > 0) {
    d.extra_delay =
        std::chrono::microseconds(1 + rng_.Below(
            static_cast<uint64_t>(profile_.reorder_jitter.count())));
    stats_.reorders.Inc();
    P9_TRACE(trace, obs::TraceKind::kFault, "sim.fault", "reorder",
             static_cast<uint64_t>(d.extra_delay.count()));
  }
  return d;
}

void FaultInjector::ApplyCorruption(Bytes* frame, size_t bit_index) {
  if (frame->empty()) {
    return;
  }
  size_t byte = (bit_index / 8) % frame->size();
  (*frame)[byte] ^= static_cast<uint8_t>(1u << (bit_index % 8));
}

std::string FormatFaultStats(const FaultStats& s, const char* prefix) {
  std::string out;
  auto line = [&](const char* key, uint64_t v) {
    out += StrFormat("%s%s: %llu\n", prefix, key, static_cast<unsigned long long>(v));
  };
  line("drops-burst", s.drops_burst.value());
  line("drops-partition", s.drops_partition.value());
  line("dups", s.dups.value());
  line("reorders", s.reorders.value());
  line("corruptions", s.corruptions.value());
  line("bursts", s.bad_state_entries.value());
  return out;
}

}  // namespace plan9
