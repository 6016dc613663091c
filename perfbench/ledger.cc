#include "perfbench/ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "src/obs/metrics.h"

namespace p9bench {
namespace {

namespace obs = plan9::obs;

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, std::max(align, sizeof(void*)), size) != 0) {
    throw std::bad_alloc();
  }
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

double TvUs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

// Registry counters the ledger reports per op (process-wide: both nodes).
const char* const kCounters[] = {
    "ninep.rpc.count",    "net.dial.failures",     "net.il.msgs-sent",
    "net.il.resends",     "net.il.queries",        "net.tcp.segs-sent",
    "net.tcp.resends",    "net.ip.packets-sent",   "net.ip.frags-sent",
    "net.ether.frames-in", "sim.media.frames-sent", "sim.media.bytes-sent",
    "stream.block.copies", "stream.block.pool-hit", "stream.block.pool-miss",
};

obs::Histogram& RpcHistogram() {
  return obs::MetricsRegistry::Default().HistogramNamed("ninep.rpc.latency");
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace allocs {
void Enable(bool on) { g_counting.store(on, std::memory_order_relaxed); }
uint64_t Count() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t Bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }
}  // namespace allocs

Usage Usage::Now() {
  Usage u;
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  u.process_cpu_us = TvUs(self.ru_utime) + TvUs(self.ru_stime);
  u.vcsw = static_cast<double>(self.ru_nvcsw);
  u.ivcsw = static_cast<double>(self.ru_nivcsw);
  rusage thread{};
  getrusage(RUSAGE_THREAD, &thread);
  u.thread_cpu_us = TvUs(thread.ru_utime) + TvUs(thread.ru_stime);
  return u;
}

double PeakRssMb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RegistrySnap RegistrySnap::Take() {
  RegistrySnap s;
  auto& r = obs::MetricsRegistry::Default();
  for (const char* name : kCounters) {
    s.counters_[name] = r.CounterNamed(name).value();
  }
  auto& h = RpcHistogram();
  s.rpc_buckets_.resize(obs::Histogram::kBuckets);
  for (int b = 0; b < obs::Histogram::kBuckets; b++) {
    s.rpc_buckets_[b] = h.bucket(b);
  }
  return s;
}

double RegistrySnap::Delta(const RegistrySnap& before, const std::string& name) const {
  auto now = counters_.find(name);
  auto then = before.counters_.find(name);
  if (now == counters_.end() || then == before.counters_.end()) return 0;
  return static_cast<double>(now->second - then->second);
}

double RegistrySnap::RpcLatencyQuantile(const RegistrySnap& before, double q) const {
  std::vector<uint64_t> delta(rpc_buckets_.size());
  uint64_t total = 0;
  for (size_t b = 0; b < delta.size(); b++) {
    delta[b] = rpc_buckets_[b] - before.rpc_buckets_[b];
    total += delta[b];
  }
  if (total == 0) return 0;
  double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t b = 0; b < delta.size(); b++) {
    if (delta[b] == 0) continue;
    if (seen + static_cast<double>(delta[b]) >= rank) {
      auto lo = static_cast<double>(obs::Histogram::BucketLowerBound(static_cast<int>(b)));
      double hi = b == 0 ? 1.0 : lo * 2.0;
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(delta[b]);
    }
    seen += static_cast<double>(delta[b]);
  }
  return 0;
}

}  // namespace p9bench

// Replaceable global allocation functions: every allocation funnels through
// malloc/free, counted only while a traced phase has counting on.
void* operator new(std::size_t size) { return p9bench::CountedAlloc(size); }
void* operator new[](std::size_t size) { return p9bench::CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return p9bench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return p9bench::CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return p9bench::CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return p9bench::CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
