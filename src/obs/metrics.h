// Unified metrics registry (observability tentpole).
//
// The paper's network devices are legible because they export themselves as
// files: the LANCE driver's `stats` file and every conversation's `status`
// file are the original observability layer (§2, Figure 1).  This module is
// the substrate behind those files: lock-free atomic counters, gauges with
// high-water marks, and log-bucketed latency histograms, registered by
// dotted name ("net.il.resends", "ninep.rpc.latency", "stream.q.depth").
//
// Three levels: per-object stats structs (one per conversation, segment,
// client...) are MetricSets whose members are declared once, with their
// names, and bound to a registry as they are built.  A node's registry
// (obs::Context, context.h) renders its /net/stats; each of its counters and
// histograms feeds the process root's entry of the same name, so an
// increment is one relaxed atomic add per level: the object's own counter,
// its node's entry and the root's.  Registry entries are created once and
// never move, so handed-out references stay valid for the registry's life.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"

namespace plan9 {
namespace obs {

class MetricSet;

// A monotonically increasing event count.  Incrementing is wait-free; an
// optional parent receives every increment so registry-level aggregates stay
// in sync with per-object counts.  Reset() clears only this counter (used
// when a conversation is recycled), never the parent: the aggregate counts
// events, not live objects.
class Counter {
 public:
  Counter() = default;
  explicit Counter(Counter* parent) : parent_(parent) {}
  // A member of `set` named `name`, fed into the set's registry entry.
  Counter(MetricSet* set, const char* name);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    if (parent_ != nullptr) {
      parent_->Inc(n);
    }
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* const parent_ = nullptr;
};

// A point-in-time level (queue depth, window size) with a high-water mark.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseHighWater(v);
  }

  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    RaiseHighWater(now);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t high_water() const { return high_water_.load(std::memory_order_relaxed); }

  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  void RaiseHighWater(int64_t v) {
    int64_t hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw &&
           !high_water_.compare_exchange_weak(hw, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> high_water_{0};
};

// A log-bucketed histogram for latency samples (microseconds by convention).
// Bucket b holds samples whose bit width is b: bucket 0 holds the value 0,
// bucket 1 holds 1, bucket 2 holds 2..3, bucket b (b >= 1) holds
// [2^(b-1), 2^b).  Recording is wait-free; snapshots are read relaxed and
// may be slightly torn under concurrent writers, which is fine for
// observability (counts never go backward).  Like a Counter, a histogram
// may feed a parent that receives every sample.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  Histogram() = default;
  explicit Histogram(Histogram* parent) : parent_(parent) {}
  // A member of `set` named `name`, fed into the set's registry entry.
  Histogram(MetricSet* set, const char* name);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Bucket index a value lands in.
  static int BucketFor(uint64_t v);
  // Inclusive lower bound of bucket b (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(int b);

  void Record(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int b) const { return buckets_[b].load(std::memory_order_relaxed); }
  uint64_t mean() const;
  // Upper bound of the bucket containing the p-th percentile sample
  // (0 < p <= 100); 0 when empty.
  uint64_t Percentile(double p) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  Histogram* const parent_ = nullptr;
};

// A registry: a node's (its /net/stats) or the process root's.  Entries are
// created on first use and live as long as the registry; lookup takes a
// lock, so resolve names once (at object construction) and keep the
// reference — never look up on a hot path.
class MetricsRegistry {
 public:
  // The process root's registry (Context::Root()): every node's counters
  // and histograms add up here, and code below any node counts here.
  static MetricsRegistry& Default();

  // Counters and histograms created here feed `parent`'s entries of the same
  // name.  Gauges are levels, not event counts, and stay local.
  explicit MetricsRegistry(MetricsRegistry* parent = nullptr) : parent_(parent) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& CounterNamed(const std::string& name);
  Gauge& GaugeNamed(const std::string& name);
  Histogram& HistogramNamed(const std::string& name);

  // All metrics in the paper's `key value` format, sorted by name.
  // Histograms render as name-count/-sum/-mean/-max/-p50/-p99 lines.
  std::string RenderText();
  // One JSON object {"name": value, ...} for bench snapshots.
  std::string RenderJson();

 private:
  MetricsRegistry* const parent_;
  QLock lock_{"obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(lock_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(lock_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(lock_);
};

// The base of a stats struct.  Each member is declared once, with its name:
//
//   struct IlConvMetrics : obs::MetricSet {
//     using MetricSet::MetricSet;
//     obs::Counter msgs_sent{this, "net.il.msgs-sent"};
//   };
//
// The set binds its members to its registry as they are built and
// remembers them, so Reset needs no list.
class MetricSet {
 public:
  explicit MetricSet(MetricsRegistry& registry) : registry_(registry) {}
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  // Zeroes every member; the registry's entries keep counting events.
  void Reset();

 private:
  friend class Counter;
  friend class Histogram;

  MetricsRegistry& registry_;
  std::vector<Counter*> counters_;
  std::vector<Histogram*> histograms_;
};

}  // namespace obs
}  // namespace plan9

#endif  // SRC_OBS_METRICS_H_
