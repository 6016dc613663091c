#include "src/obs/metrics.h"

#include <bit>

#include "src/base/strings.h"
#include "src/obs/context.h"

namespace plan9 {
namespace obs {

int Histogram::BucketFor(uint64_t v) {
  return std::bit_width(v);  // 0 -> 0, 1 -> 1, 2..3 -> 2, [2^(b-1), 2^b) -> b
}

uint64_t Histogram::BucketLowerBound(int b) {
  if (b <= 0) {
    return 0;
  }
  return uint64_t{1} << (b - 1);
}

Counter::Counter(MetricSet* set, const char* name)
    : parent_(&set->registry_.CounterNamed(name)) {
  set->counters_.push_back(this);
}

Histogram::Histogram(MetricSet* set, const char* name)
    : parent_(&set->registry_.HistogramNamed(name)) {
  set->histograms_.push_back(this);
}

void MetricSet::Reset() {
  for (Counter* c : counters_) {
    c->Reset();
  }
  for (Histogram* h : histograms_) {
    h->Reset();
  }
}

void Histogram::Record(uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t m = max_.load(std::memory_order_relaxed);
  while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
  if (parent_ != nullptr) {
    parent_->Record(v);
  }
}

uint64_t Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0 : sum() / n;
}

uint64_t Histogram::Percentile(double p) const {
  uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  auto rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; b++) {
    seen += bucket(b);
    if (seen >= rank) {
      // Inclusive upper bound of bucket b.
      return b == 0 ? 0 : (BucketLowerBound(b) << 1) - 1;
    }
  }
  return max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Default() { return Context::Root().metrics(); }

// The parent's entry is resolved before taking this registry's lock, so two
// registries' locks are never held at once.
Counter& MetricsRegistry::CounterNamed(const std::string& name) {
  Counter* up = parent_ != nullptr ? &parent_->CounterNamed(name) : nullptr;
  QLockGuard guard(lock_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>(up);
  }
  return *slot;
}

Gauge& MetricsRegistry::GaugeNamed(const std::string& name) {
  QLockGuard guard(lock_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::HistogramNamed(const std::string& name) {
  Histogram* up = parent_ != nullptr ? &parent_->HistogramNamed(name) : nullptr;
  QLockGuard guard(lock_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(up);
  }
  return *slot;
}

std::string MetricsRegistry::RenderText() {
  QLockGuard guard(lock_);
  std::string out;
  // std::map keeps families sorted; merge the three kinds into one listing.
  for (const auto& [name, c] : counters_) {
    out += StrFormat("%s %llu\n", name.c_str(), (unsigned long long)c->value());
  }
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("%s %lld\n", name.c_str(), (long long)g->value());
    out += StrFormat("%s-hiwat %lld\n", name.c_str(), (long long)g->high_water());
  }
  for (const auto& [name, h] : histograms_) {
    out += StrFormat("%s-count %llu\n", name.c_str(), (unsigned long long)h->count());
    out += StrFormat("%s-sum %llu\n", name.c_str(), (unsigned long long)h->sum());
    out += StrFormat("%s-mean %llu\n", name.c_str(), (unsigned long long)h->mean());
    out += StrFormat("%s-max %llu\n", name.c_str(), (unsigned long long)h->max());
    out += StrFormat("%s-p50 %llu\n", name.c_str(), (unsigned long long)h->Percentile(50));
    out += StrFormat("%s-p99 %llu\n", name.c_str(), (unsigned long long)h->Percentile(99));
  }
  return out;
}

std::string MetricsRegistry::RenderJson() {
  QLockGuard guard(lock_);
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& key, unsigned long long v) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrFormat("\"%s\":%llu", key.c_str(), v);
  };
  for (const auto& [name, c] : counters_) {
    emit(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    emit(name, (unsigned long long)g->value());
    emit(name + "-hiwat", (unsigned long long)g->high_water());
  }
  for (const auto& [name, h] : histograms_) {
    emit(name + "-count", h->count());
    emit(name + "-sum", h->sum());
    emit(name + "-mean", h->mean());
    emit(name + "-max", h->max());
    emit(name + "-p50", h->Percentile(50));
    emit(name + "-p99", h->Percentile(99));
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace plan9
