// Fault injection for simulated media.
//
// The paper's claim that 9P runs "over any reliable, delimited transport"
// and that IL's query-based retransmission keeps connections alive on lossy
// long-haul links is only demonstrable under adversarial link conditions.
// A FaultProfile describes an adversary: Gilbert–Elliott loss bursts,
// frame duplication, reordering (per-frame jitter), bit corruption, and
// scripted partitions/flaps.  Every decision draws from a seeded Rng so a
// failing run replays exactly — same seed, same delivery trace.
//
// A FaultInjector is embedded in a medium (Wire direction, EtherSegment)
// and consulted once per frame *under the medium's lock*; it keeps no lock
// of its own.  Partition scheduling is expressed in time-since-creation so
// two injectors built together see the same script.
#ifndef SRC_SIM_FAULTS_H_
#define SRC_SIM_FAULTS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/rand.h"
#include "src/obs/metrics.h"
#include "src/task/timers.h"

namespace plan9 {

// One scripted outage: the link is dead during [start, start + duration),
// measured from injector creation (i.e. medium construction).
struct PartitionWindow {
  std::chrono::milliseconds start{0};
  std::chrono::milliseconds duration{0};
};

struct FaultProfile {
  // --- loss ---------------------------------------------------------------
  // Gilbert–Elliott two-state burst model.  In the Good state frames drop
  // with probability loss_good; in the Bad state with loss_bad.  After each
  // frame the chain transitions Good->Bad with p_good_to_bad and Bad->Good
  // with p_bad_to_good.  Uniform loss is loss_good alone: a chain that never
  // enters Bad drops every frame with the same probability.
  double loss_good = 0.0;
  double loss_bad = 0.0;
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;

  // --- duplication --------------------------------------------------------
  // Probability a delivered frame arrives twice (the copy re-serializes, so
  // it lands strictly later).
  double dup_rate = 0.0;

  // --- reordering ---------------------------------------------------------
  // Probability a frame is held back by an extra uniformly random delay in
  // (0, reorder_jitter], letting later frames overtake it.
  double reorder_rate = 0.0;
  std::chrono::microseconds reorder_jitter{0};

  // --- corruption ---------------------------------------------------------
  // Probability one random bit of the frame is flipped in flight.  Media
  // deliver the damaged frame; protocol checksums must catch it.
  double corrupt_rate = 0.0;

  // --- partitions ---------------------------------------------------------
  // Scripted outages (both directions of a Wire share the script since both
  // directions share LinkParams-by-default construction).
  std::vector<PartitionWindow> partitions;
  // Periodic flapping: every flap_period the link goes down for flap_down.
  // Zero period disables.  Applied in addition to `partitions`.
  std::chrono::milliseconds flap_period{0};
  std::chrono::milliseconds flap_down{0};

  bool Enabled() const {
    return loss_good > 0 || loss_bad > 0 || dup_rate > 0 || reorder_rate > 0 ||
           corrupt_rate > 0 || !partitions.empty() || flap_period.count() > 0;
  }

  // Canned adversaries used by tests, benches, and the CI fault matrix.
  static FaultProfile BurstLoss(double avg_loss);
  static FaultProfile Reorder(double rate, std::chrono::microseconds jitter);
  static FaultProfile Hostile();  // burst loss + reorder + dup + corruption
};

// Per-cause counters; media expose these next to MediaStats in their
// `stats` files so tests and benches can assert on recovery behaviour.
// Each increment also feeds the process root's sim.fault.* entry.  Atomic,
// so readable without the medium's lock.
struct FaultStats : obs::MetricSet {
  FaultStats() : MetricSet(obs::MetricsRegistry::Default()) {}
  obs::Counter drops_burst{this, "sim.fault.drops-burst"};  // Gilbert–Elliott
  // Scripted/forced outage losses.
  obs::Counter drops_partition{this, "sim.fault.drops-partition"};
  obs::Counter dups{this, "sim.fault.dups"};  // frames delivered twice
  obs::Counter reorders{this, "sim.fault.reorders"};  // held back by jitter
  obs::Counter corruptions{this, "sim.fault.corruptions"};  // a flipped bit
  // Good->Bad transitions (burst count).
  obs::Counter bad_state_entries{this, "sim.fault.bursts"};
};

class FaultInjector {
 public:
  // `epoch` anchors the partition script; media pass their construction
  // time so paired directions agree on when windows open.
  FaultInjector() : FaultInjector(FaultProfile{}, 1, TimerWheel::Clock::now()) {}
  FaultInjector(const FaultProfile& profile, uint64_t seed,
                TimerWheel::Clock::time_point epoch);

  // Re-arm in place (media reconfigure their embedded injector: the atomic
  // counters make FaultInjector non-assignable).  Resets the chain state,
  // the Rng, and this injector's counters.
  void Reconfigure(const FaultProfile& profile, uint64_t seed,
                   TimerWheel::Clock::time_point epoch);

  // The verdict for one frame.  NOT thread safe: call under the medium's
  // lock, exactly once per frame sent (every call advances the Rng).
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    size_t corrupt_bit = 0;  // valid when corrupt: absolute bit index
    std::chrono::microseconds extra_delay{0};  // valid when held for reorder
  };
  Decision Evaluate(TimerWheel::Clock::time_point now, size_t frame_size);

  // Flip the decided bit in place (helper so media share one definition).
  static void ApplyCorruption(Bytes* frame, size_t bit_index);

  // Manual partition control (the test's hand on the cable): while down,
  // every frame drops as a partition loss, independent of the script.
  void SetDown(bool down) { forced_down_ = down; }
  bool down(TimerWheel::Clock::time_point now) const {
    return forced_down_ || ScriptedDown(now);
  }

  const FaultStats& stats() const { return stats_; }
  const FaultProfile& profile() const { return profile_; }

 private:
  bool ScriptedDown(TimerWheel::Clock::time_point now) const;

  FaultProfile profile_;
  Rng rng_;
  TimerWheel::Clock::time_point epoch_;
  bool bad_state_ = false;  // Gilbert–Elliott chain state
  bool forced_down_ = false;
  FaultStats stats_;
};

// Render the counters as `key: value` lines for a stats file; `prefix` is
// prepended to each key ("fault-drops-burst: 3\n" ...).  Lines with zero
// counts are included so parsers see a stable schema.
std::string FormatFaultStats(const FaultStats& s, const char* prefix = "fault-");

}  // namespace plan9

#endif  // SRC_SIM_FAULTS_H_
