#include "src/obs/span.h"

#include "src/base/strings.h"
#include "src/obs/context.h"

namespace plan9 {
namespace obs {
namespace {

thread_local TraceContext g_current;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One begin (B) or end (E, with its duration) record in the node's ring,
// labelled with the node's sysname ("-" for the process root).
void RecordSpan(Context& obs, bool end, const char* op, uint64_t trace_hi,
                uint64_t trace_lo, uint64_t span, uint64_t parent, uint64_t us) {
  std::string text =
      StrFormat("%c %s trace=%016llx%016llx span=%016llx parent=%016llx",
                end ? 'E' : 'B', op, (unsigned long long)trace_hi,
                (unsigned long long)trace_lo, (unsigned long long)span,
                (unsigned long long)parent);
  if (end) {
    text += StrFormat(" us=%llu", (unsigned long long)us);
  }
  const std::string& host = obs.sysname();
  obs.recorder().Append(TraceKind::kSpan, host.empty() ? "-" : host,
                        std::move(text));
}

}  // namespace

uint64_t Tracer::NextId() {
  uint64_t id;
  do {
    id = SplitMix64(ids_.fetch_add(1, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

const TraceContext& Tracer::Current() { return g_current; }

ScopedSpan::ScopedSpan(const char* op, Context& obs, Mode mode)
    : op_(op), obs_(obs) {
  Tracer& tracer = obs.tracer();
  if (g_current.sampled) {
    // Child of the active span: same trace, fresh span id.
    prev_ = g_current;
    ctx_.trace_hi = prev_.trace_hi;
    ctx_.trace_lo = prev_.trace_lo;
    parent_ = prev_.span_id;
  } else if (mode == kRootAtEntry && tracer.ShouldSample()) {
    prev_ = g_current;
    ctx_.trace_hi = tracer.NextId();
    ctx_.trace_lo = tracer.NextId();
    parent_ = 0;
  } else {
    return;  // unsampled: the branch is the whole cost
  }
  active_ = true;
  ctx_.span_id = tracer.NextId();
  ctx_.sampled = true;
  g_current = ctx_;
  begin_ = std::chrono::steady_clock::now();
  RecordSpan(obs_, /*end=*/false, op_, ctx_.trace_hi, ctx_.trace_lo, ctx_.span_id,
             parent_, 0);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  g_current = prev_;
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - begin_);
  RecordSpan(obs_, /*end=*/true, op_, ctx_.trace_hi, ctx_.trace_lo, ctx_.span_id,
             parent_, static_cast<uint64_t>(us.count()));
}

SpanAdoption::SpanAdoption(const TraceContext& wire) {
  if (!wire.sampled) {
    return;
  }
  installed_ = true;
  prev_ = g_current;
  g_current = wire;
}

SpanAdoption::~SpanAdoption() {
  if (installed_) {
    g_current = prev_;
  }
}

void EmitPointSpan(const char* op, Context& obs, uint64_t trace_hi,
                   uint64_t trace_lo, uint64_t parent, uint64_t us) {
  if (trace_hi == 0 && trace_lo == 0) {
    return;
  }
  RecordSpan(obs, /*end=*/true, op, trace_hi, trace_lo, obs.tracer().NextId(),
             parent, us);
}

}  // namespace obs
}  // namespace plan9
