#include "src/sim/medium.h"

#include <algorithm>

#include "src/base/strings.h"

namespace plan9 {

void MediumCore::Configure(const LinkParams& params, uint64_t seed,
                           TimerWheel::Clock::time_point now) {
  params_ = params;
  faults.Reconfigure(params.faults, seed, now);
  busy_until_ = now;
}

Result<MediumCore::Delivery> MediumCore::Transmit(size_t frame_size, Bytes* damageable) {
  if (frame_size > params_.mtu) {
    stats.send_errors.Inc();
    return Error(StrFormat("frame too large for medium (%zu > %zu)", frame_size,
                           params_.mtu));
  }
  stats.frames_sent.Inc();
  stats.bytes_sent.Inc(frame_size);
  Delivery d;
  auto now = TimerWheel::Clock::now();
  auto fault = faults.Evaluate(now, damageable->size());
  if (fault.drop) {
    stats.frames_dropped.Inc();
    d.dropped = true;
    return d;
  }
  if (fault.corrupt) {
    FaultInjector::ApplyCorruption(damageable, fault.corrupt_bit);
  }
  // Serialization: the line transmits one frame at a time.
  TimerWheel::Clock::duration tx_time{0};
  if (params_.bandwidth_bps > 0) {
    tx_time = std::chrono::nanoseconds(frame_size * 8ULL * 1'000'000'000ULL /
                                       params_.bandwidth_bps);
  }
  busy_until_ = std::max(now, busy_until_) + tx_time;
  d.duplicate = fault.duplicate;
  d.delay = (busy_until_ + params_.latency) - now + fault.extra_delay;
  // The copy re-serializes behind the original, so it lands strictly later.
  d.duplicate_delay = d.delay + tx_time + std::chrono::microseconds(1);
  return d;
}

}  // namespace plan9
