// Flight recorder (observability tentpole).
//
// A fixed-size ring buffer of typed trace events: IL send/resend/ack/
// deadman, 9P T/R with latency, dial attempts, fault injections, chaos
// events and causal-trace spans.  Tracing is off by default; the
// enabled-kind mask is a relaxed atomic so the disabled fast path is a
// single load and branch — event text is only formatted when the kind is on
// (use the P9_TRACE macro).  When the ring is full the oldest event is
// overwritten; an event lost before anyone read it counts in
// obs.trace.dropped.
//
// Each node's context (context.h) owns one recorder: its /net/trace,
// controlled through its /net/ctl (see devproto).  Events from code below
// any node — the wire's faults, the chaos engine, node crashes and
// restarts — land in the process root's recorder.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/task/qlock.h"

namespace plan9 {
namespace obs {

enum class TraceKind : uint32_t {
  kIl = 1u << 0,     // IL send/resend/ack/deadman
  kTcp = 1u << 1,    // TCP segment events
  kNinep = 1u << 2,  // 9P T/R tag with latency
  kDial = 1u << 3,   // dial/announce attempts
  kFault = 1u << 4,  // injected faults
  kChaos = 1u << 5,  // chaos engine: crash/restart/partition/heal/flap
  kSpan = 1u << 6,   // causal-trace span begin/end (src/obs/span.h)
  kAll = 0x7f,
};

const char* TraceKindName(TraceKind kind);
// "il" -> kIl etc.; "all" -> kAll; nullopt for unknown names.
std::optional<TraceKind> TraceKindFromName(std::string_view name);

struct TraceEvent {
  std::chrono::steady_clock::time_point ts;
  TraceKind kind{};
  std::string src;   // "helix/il/3", "9p.client", ...
  std::string text;  // event-specific detail
  uint64_t a = 0;    // event-specific numbers (latency us, seq, tag...)
  uint64_t b = 0;
};

class FlightRecorder {
 public:
  // Sized for span traffic: a traced chaos scenario emits two records per
  // span across every hop plus per-ack il.rtt points, and the stitcher
  // reports a span whose parent was overwritten as an orphan.
  static constexpr size_t kDefaultCapacity = 16384;

  // `dropped` (optional) counts events overwritten before any reader saw
  // them.
  explicit FlightRecorder(size_t capacity = kDefaultCapacity,
                          Counter* dropped = nullptr);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The disabled fast path: one relaxed load.
  bool enabled(TraceKind kind) const {
    return (mask_.load(std::memory_order_relaxed) & static_cast<uint32_t>(kind)) != 0;
  }

  // Records the event iff its kind is enabled.
  void Record(TraceKind kind, std::string src, std::string text, uint64_t a = 0,
              uint64_t b = 0) {
    if (enabled(kind)) {
      Append(kind, std::move(src), std::move(text), a, b);
    }
  }
  // Records the event whatever the mask says: a sampled span is kept by the
  // head-based rule (span.h), not by this node's settings.
  void Append(TraceKind kind, std::string src, std::string text, uint64_t a = 0,
              uint64_t b = 0);

  void Enable(uint32_t kinds);
  void Disable(uint32_t kinds);
  uint32_t mask() const { return mask_.load(std::memory_order_relaxed); }

  // Events oldest-first, one per line:
  //   <sec.usec> <kind> <src> <text> [a [b]]
  // With a filter, only matching kinds render (the stitcher passes kSpan).
  // Formatting happens on a snapshot, outside the ring lock, so a slow
  // reader never stalls hot-path writers.
  std::string RenderText(uint32_t kinds = static_cast<uint32_t>(TraceKind::kAll));

  void Clear();

  size_t capacity() const { return capacity_; }
  size_t EventCount();
  uint64_t Overwritten();

 private:
  const size_t capacity_;
  Counter* const dropped_;
  std::atomic<uint32_t> mask_{0};
  const std::chrono::steady_clock::time_point epoch_;

  QLock lock_{"obs.trace"};
  std::vector<TraceEvent> ring_ GUARDED_BY(lock_);
  size_t next_ GUARDED_BY(lock_) = 0;      // slot the next event lands in
  uint64_t recorded_ GUARDED_BY(lock_) = 0;  // lifetime total
  // Sequence number up to which events have been rendered at least once;
  // overwriting an event past this mark bumps obs.trace.dropped — span loss
  // is counted, never silent.
  uint64_t read_seq_ GUARDED_BY(lock_) = 0;
};

// Record into `recorder` iff the kind is enabled; argument expressions
// (StrFormat etc.) are not evaluated when tracing is off.
#define P9_TRACE(recorder, kind, ...)                 \
  do {                                                \
    ::plan9::obs::FlightRecorder& p9_fr = (recorder); \
    if (p9_fr.enabled(kind)) {                        \
      p9_fr.Append(kind, __VA_ARGS__);                \
    }                                                 \
  } while (0)

}  // namespace obs
}  // namespace plan9

#endif  // SRC_OBS_TRACE_H_
