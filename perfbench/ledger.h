// Measurement helpers for the benchmark: latency samples, registry counter
// deltas, getrusage snapshots and the allocation counter.  Everything here
// observes the library from outside; nothing in src/ is instrumented.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace p9bench {

using Clock = std::chrono::steady_clock;

inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Quantile of unsorted samples by linear interpolation (q in [0, 1]).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Allocation counting through the benchmark binary's own operator new.  Off
// unless a traced phase turns it on; counts every thread in the process.
namespace allocs {
void Enable(bool on);
uint64_t Count();
uint64_t Bytes();
}  // namespace allocs

// Process-wide CPU and context-switch figures, plus the calling thread's CPU.
struct Usage {
  double process_cpu_us = 0;
  double thread_cpu_us = 0;
  double vcsw = 0;
  double ivcsw = 0;
  static Usage Now();
};

// Peak resident set of the process, MiB.
double PeakRssMb();

// Snapshot of the registry counters the ledger divides per op, and of the
// 9P RPC latency histogram (so a phase's own percentile can be recovered).
class RegistrySnap {
 public:
  static RegistrySnap Take();
  // Counter delta since `before`.
  double Delta(const RegistrySnap& before, const std::string& name) const;
  // p-quantile (0..1) of the 9P RPC latencies recorded since `before`, in
  // microseconds, interpolated inside the histogram's power-of-two bucket.
  double RpcLatencyQuantile(const RegistrySnap& before, double q) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::vector<uint64_t> rpc_buckets_;
};

}  // namespace p9bench

#endif  // PERFBENCH_LEDGER_H_
