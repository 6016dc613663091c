// Simulated-media parameters, and the per-frame core every medium shares.
//
// Plan 9's networks span "a hierarchy of network speeds": 125 Mb/s Cyclone
// fiber, 10 Mb/s Ethernet, Datakit circuits, ISDN and 9600-baud serial
// lines.  Every simulated medium is configured with a LinkParams describing
// bandwidth, propagation latency and faults.  Faults draw from a seeded Rng
// so every experiment replays deterministically.
#ifndef SRC_SIM_MEDIUM_H_
#define SRC_SIM_MEDIUM_H_

#include <chrono>
#include <cstdint>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/obs/metrics.h"
#include "src/sim/faults.h"
#include "src/task/timers.h"

namespace plan9 {

struct LinkParams {
  // Bits per second; 0 means infinitely fast (no serialization delay).
  uint64_t bandwidth_bps = 0;
  // One-way propagation delay.
  std::chrono::microseconds latency{0};
  // Seed for the fault injector's Rng.
  uint64_t seed = 1;
  // Maximum frame size; larger sends fail (media enforce their MTU).
  size_t mtu = 64 * 1024;
  // Link behaviour beyond the ideal: uniform loss (loss_good alone), loss
  // bursts, duplication, reordering, bit corruption, scripted partitions.
  // Driven by `seed`, so replays exactly.
  FaultProfile faults;

  static LinkParams Perfect() { return LinkParams{}; }

  // The paper's media, by the numbers it quotes.
  static LinkParams Ether10() {
    return LinkParams{.bandwidth_bps = 10'000'000,
                      .latency = std::chrono::microseconds(200),
                      .mtu = 1514,
                      .faults = {}};
  }
  static LinkParams Datakit() {
    // URP/Datakit measured 0.22 MB/s and 1.75 ms RTT latency in Table 1;
    // circuits through the switch were ~2 Mb/s with millisecond latencies.
    return LinkParams{.bandwidth_bps = 2'000'000,
                      .latency = std::chrono::microseconds(700),
                      .mtu = 2048,
                      .faults = {}};
  }
  static LinkParams Cyclone() {
    // "two VME cards ... drive the lines at 125 Mbit/sec"; software copies
    // directly from system memory to fiber.
    return LinkParams{.bandwidth_bps = 125'000'000,
                      .latency = std::chrono::microseconds(50),
                      .mtu = 64 * 1024,
                      .faults = {}};
  }
};

// Counters every medium keeps; the ether device's `stats` file reports them.
// A medium belongs to no one node, so increments feed the process root's
// sim.media.* entries.  Atomic, so readable without the medium's lock.
struct MediaStats : obs::MetricSet {
  MediaStats() : MetricSet(obs::MetricsRegistry::Default()) {}
  obs::Counter frames_sent{this, "sim.media.frames-sent"};
  obs::Counter frames_delivered{this, "sim.media.frames-delivered"};
  obs::Counter frames_dropped{this, "sim.media.frames-dropped"};
  obs::Counter bytes_sent{this, "sim.media.bytes-sent"};
  obs::Counter bytes_delivered{this, "sim.media.bytes-delivered"};
  obs::Counter send_errors{this, "sim.media.send-errors"};  // oversize etc.
};

// One serialized transmission path — a Wire direction, an Ethernet cable —
// and the per-frame steps every medium shares: the MTU check, the counters,
// the fault verdict, serialization behind the previous frame, the
// propagation delay, and a duplicate's later slot.  Keeps no lock: the
// medium calls it under its own.
class MediumCore {
 public:
  // When to deliver a frame Transmit admitted.
  struct Delivery {
    bool dropped = false;
    bool duplicate = false;
    TimerWheel::Clock::duration delay{};
    TimerWheel::Clock::duration duplicate_delay{};
  };

  void Configure(const LinkParams& params, uint64_t seed,
                 TimerWheel::Clock::time_point now);

  // Put one `frame_size`-byte frame on the medium.  The fault injector sees
  // `damageable` (the part of the frame corruption may flip a bit in) and
  // its size; an oversize frame fails.
  Result<Delivery> Transmit(size_t frame_size, Bytes* damageable);

  // Run `deliver` after the delivery delay, and again for a duplicate.
  template <class F>
  static void Schedule(const Delivery& d, F deliver) {
    if (d.duplicate) {
      TimerWheel::Default().Schedule(d.duplicate_delay, deliver);
    }
    TimerWheel::Default().Schedule(d.delay, std::move(deliver));
  }

  FaultInjector faults;
  MediaStats stats;  // atomic counters; readable without the medium's lock

 private:
  LinkParams params_;
  TimerWheel::Clock::time_point busy_until_{};
};

}  // namespace plan9

#endif  // SRC_SIM_MEDIUM_H_
