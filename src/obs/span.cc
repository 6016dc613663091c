#include "src/obs/span.h"

#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace plan9 {
namespace obs {
namespace {

thread_local TraceContext g_current;

const char* SrcHost(const std::string& host) {
  return host.empty() ? "-" : host.c_str();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

uint64_t Tracer::NextId() {
  uint64_t id;
  do {
    id = SplitMix64(ids_.fetch_add(1, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

const TraceContext& Tracer::Current() { return g_current; }

ScopedSpan::ScopedSpan(const char* op, const std::string& host, Mode mode)
    : op_(op) {
  if (g_current.sampled) {
    // Child of the active span: same trace, fresh span id.
    prev_ = g_current;
    ctx_.trace_hi = prev_.trace_hi;
    ctx_.trace_lo = prev_.trace_lo;
    parent_ = prev_.span_id;
  } else if (mode == kRootAtEntry && Tracer::Default().ShouldSample()) {
    auto& tracer = Tracer::Default();
    prev_ = g_current;
    ctx_.trace_hi = tracer.NextId();
    ctx_.trace_lo = tracer.NextId();
    parent_ = 0;
  } else {
    return;  // unsampled: the branch is the whole cost
  }
  active_ = true;
  ctx_.span_id = Tracer::Default().NextId();
  ctx_.sampled = true;
  host_ = host;
  g_current = ctx_;
  begin_ = std::chrono::steady_clock::now();
  auto& fr = FlightRecorder::Default();
  if (fr.enabled(TraceKind::kSpan)) {
    fr.Record(TraceKind::kSpan, SrcHost(host_),
              StrFormat("B %s trace=%016llx%016llx span=%016llx parent=%016llx",
                        op_, (unsigned long long)ctx_.trace_hi,
                        (unsigned long long)ctx_.trace_lo,
                        (unsigned long long)ctx_.span_id,
                        (unsigned long long)parent_));
  }
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  g_current = prev_;
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - begin_);
  auto& fr = FlightRecorder::Default();
  if (fr.enabled(TraceKind::kSpan)) {
    fr.Record(
        TraceKind::kSpan, SrcHost(host_),
        StrFormat("E %s trace=%016llx%016llx span=%016llx parent=%016llx us=%llu",
                  op_, (unsigned long long)ctx_.trace_hi,
                  (unsigned long long)ctx_.trace_lo,
                  (unsigned long long)ctx_.span_id,
                  (unsigned long long)parent_,
                  (unsigned long long)us.count()));
  }
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

void EmitPointSpan(const char* op, const std::string& host, uint64_t trace_hi,
                   uint64_t trace_lo, uint64_t parent, uint64_t us) {
  if (trace_hi == 0 && trace_lo == 0) {
    return;
  }
  auto& fr = FlightRecorder::Default();
  if (!fr.enabled(TraceKind::kSpan)) {
    return;
  }
  uint64_t id = Tracer::Default().NextId();
  fr.Record(
      TraceKind::kSpan, SrcHost(host),
      StrFormat("E %s trace=%016llx%016llx span=%016llx parent=%016llx us=%llu",
                op, (unsigned long long)trace_hi, (unsigned long long)trace_lo,
                (unsigned long long)id, (unsigned long long)parent,
                (unsigned long long)us));
}

}  // namespace obs
}  // namespace plan9
