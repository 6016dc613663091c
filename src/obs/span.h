// Causal tracing (the cross-node observability layer, DESIGN.md §12).
//
// A TraceContext is a Dapper-shaped identity for one logical request: a
// 128-bit trace id, the 64-bit id of the currently active span, and a
// sampled flag.  Contexts are created at the edges (Dial, a 9P client RPC
// with no inherited context) by a head-based sampler — the decision is made
// once, at the root, and everything downstream inherits it — and travel:
//
//   * in-process: a thread-local current context.  The simulator's call
//     paths are synchronous (dial -> cs -> devproto ctl; exportfs server
//     worker -> namespace -> next-hop 9P client), so thread-locality is
//     exactly request-locality and no per-layer plumbing is needed;
//   * across the wire: piggybacked on 9P messages as an optional trailer
//     stamped per outstanding tag (see fcall.h) and adopted by the server
//     for the handler's downstream work, so re-exported mounts carry the
//     context through multi-hop import chains;
//   * onto conversations: IL/TCP convs capture the active context at
//     connect/announce so late protocol events (RTT samples) and status
//     lines stay attributable.
//
// Spans are recorded as TraceKind::kSpan events in the flight recorder of
// the node each one runs on, labelled with its sysname, in a fixed,
// parseable text shape (see stitch.h for the reader):
//
//   B <op> trace=<32 hex> span=<16 hex> parent=<16 hex>
//   E <op> trace=<32 hex> span=<16 hex> parent=<16 hex> us=<n>
//
// Sampling is head-based and per node: a node's `trace sample <n>` decides
// only the roots that node starts, and a sampled span is recorded by the
// node it runs on whatever that node's own setting — the root decided for
// the whole request.
//
// The tracing-off cost is one thread-local read and a branch per ScopedSpan;
// nothing is formatted, copied, or locked unless the context is sampled.
#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace plan9 {
namespace obs {

class Context;

struct TraceContext {
  uint64_t trace_hi = 0;  // 128-bit trace id, high half
  uint64_t trace_lo = 0;  //   ... low half
  uint64_t span_id = 0;   // the active span; children parent to it
  bool sampled = false;

  bool active() const { return sampled; }
};

// One node's sampler + id generator.  The sample interval is a relaxed
// atomic (`trace sample <n>` via the node's /net/ctl): 0 disables root
// creation entirely, 1 samples every root, N samples 1/N deterministically
// (a counter, not a coin flip, so tests replay).
class Tracer {
 public:
  // Ids are drawn from the stream that starts at `seed`; nodes seed theirs
  // apart (Context), so ids stay unique across a process.
  explicit Tracer(uint64_t seed = 0) : ids_(seed) {}

  void SetSampleInterval(uint32_t n) {
    interval_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_interval() const {
    return interval_.load(std::memory_order_relaxed);
  }

  // One head decision; consumed only where a root could start.
  bool ShouldSample() {
    uint32_t n = interval_.load(std::memory_order_relaxed);
    if (n == 0) {
      return false;
    }
    if (n == 1) {
      return true;
    }
    return decisions_.fetch_add(1, std::memory_order_relaxed) % n == 0;
  }

  // Non-zero, well-mixed 64-bit ids (splitmix64 over a counter; no global
  // RNG, so a replayed schedule allocates the same ids).
  uint64_t NextId();

  // The calling thread's current context (inactive by default).
  static const TraceContext& Current();

 private:
  std::atomic<uint32_t> interval_{0};
  std::atomic<uint64_t> decisions_{0};
  std::atomic<uint64_t> ids_;
};

// RAII span, run on the node `obs` belongs to.  `op` must outlive the span
// (string literals / static tables).  kChildOnly starts a span only under an
// already-sampled context; kRootAtEntry additionally consults the node's
// sampler when there is none — use it at the request edges (Dial, 9P client
// RPC), kChildOnly everywhere else.  While active, the span installs itself
// as the thread's current context and restores the previous one on
// destruction.
class ScopedSpan {
 public:
  enum Mode { kChildOnly, kRootAtEntry };

  ScopedSpan(const char* op, Context& obs, Mode mode = kChildOnly);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  // The context to propagate (span_id = this span); inactive if unsampled.
  const TraceContext& context() const { return ctx_; }

 private:
  const char* op_;
  Context& obs_;
  bool active_ = false;
  TraceContext ctx_;
  TraceContext prev_;
  uint64_t parent_ = 0;
  std::chrono::steady_clock::time_point begin_;
};

// Install a wire-received context as the thread's current context for the
// scope (the 9P server's adoption point): downstream spans and next-hop
// RPCs parent to the sender's span.  A no-op for unsampled contexts.
class SpanAdoption {
 public:
  explicit SpanAdoption(const TraceContext& wire);
  ~SpanAdoption();
  SpanAdoption(const SpanAdoption&) = delete;
  SpanAdoption& operator=(const SpanAdoption&) = delete;

 private:
  bool installed_ = false;
  TraceContext prev_;
};

// A point span measured elsewhere (e.g. one IL RTT sample): emits a single
// end record of `us` microseconds under the given trace/parent into the
// node's recorder.  No-op when the trace id is zero; the caller decides
// whether the node records such spans at all.
void EmitPointSpan(const char* op, Context& obs, uint64_t trace_hi,
                   uint64_t trace_lo, uint64_t parent, uint64_t us);

}  // namespace obs
}  // namespace plan9

#endif  // SRC_OBS_SPAN_H_
