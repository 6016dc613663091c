// The flags and JSON report every bench shares:
//
//   --quick        short run (min_time 0.05s) for CI smoke jobs
//   --json[=path]  after the run, write BENCH_<name>.json (or `path`)
//                  containing the suite's results plus a snapshot of the
//                  metrics registry, starting the BENCH_*.json trajectory
//                  the CI bench-smoke job uploads
//
// google-benchmark suites use P9_BENCHMARK_MAIN("name") in place of
// BENCHMARK_MAIN(); hand-timed suites call ParseBenchFlags and
// WriteBenchJson themselves.  The benchmark library here predates the
// "0.2s" suffix syntax, so min_time is always passed as a bare double.
#ifndef BENCH_BENCH_OBS_H_
#define BENCH_BENCH_OBS_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace plan9 {
namespace benchutil {

// Derived block-audit figures (DESIGN.md section 13): payload copies and
// heap allocations per delimited message, and the block-pool hit rate.
// Written as their own JSON section so a trend job can gate on
// copies_per_message / allocs_per_message without walking the registry.
inline std::string RenderBlockAudit() {
  auto& r = obs::MetricsRegistry::Default();
  auto v = [&r](const char* n) {
    return static_cast<double>(r.CounterNamed(n).value());
  };
  double msgs = v("stream.block.msgs");
  double hot_msgs = v("stream.hot.msgs");
  double hits = v("stream.block.pool-hit");
  double misses = v("stream.block.pool-miss");
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "{\"messages\": " << static_cast<uint64_t>(msgs)
      << ", \"copies_per_message\": "
      << (msgs > 0 ? v("stream.block.copies") / msgs : 0.0)
      << ", \"allocs_per_message\": "
      << (hot_msgs > 0 ? v("stream.hot.allocs") / hot_msgs : 0.0)
      << ", \"alloc_bytes_per_message\": "
      << (hot_msgs > 0 ? v("stream.hot.alloc-bytes") / hot_msgs : 0.0)
      << ", \"pool_hit_rate\": "
      << (hits + misses > 0 ? hits / (hits + misses) : 0.0) << "}";
  return out.str();
}

struct BenchFlags {
  bool quick = false;
  bool json = false;
  std::string json_path;
  std::vector<std::string> rest;  // argv[0] and every flag not ours
};

inline BenchFlags ParseBenchFlags(int argc, char** argv, const char* name) {
  BenchFlags flags;
  flags.json_path = std::string("BENCH_") + name + ".json";
  flags.rest.emplace_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json = true;
      flags.json_path = arg.substr(7);
    } else {
      flags.rest.push_back(std::move(arg));
    }
  }
  return flags;
}

// Writes {"suite": name, <body>, "block_audit": ..., "registry": ...} to
// the --json path; `body` holds the suite's own "key": value members.
inline void WriteBenchJson(const BenchFlags& flags, const char* name,
                           const std::string& body) {
  std::ofstream out(flags.json_path);
  out << "{\"suite\": \"" << name << "\",\n"
      << body << ",\n\"block_audit\": " << RenderBlockAudit()
      << ",\n\"registry\": " << obs::MetricsRegistry::Default().RenderJson() << "}\n";
  std::fprintf(stderr, "wrote %s\n", flags.json_path.c_str());
}

inline int RunWithObs(int argc, char** argv, const char* name) {
  BenchFlags flags = ParseBenchFlags(argc, argv, name);
  // google benchmark rejects unknown flags, so it sees only the rest.
  std::vector<std::string> args = flags.rest;
  if (flags.quick) {
    args.emplace_back("--benchmark_min_time=0.05");
  }
  std::string report_path = flags.json_path + ".gbench";
  if (flags.json) {
    args.emplace_back("--benchmark_out=" + report_path);
    args.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> cargs;
  for (auto& a : args) {
    cargs.push_back(a.data());
  }
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  benchmark::RunSpecifiedBenchmarks();
  if (flags.json) {
    std::ifstream in(report_path);
    std::stringstream report;
    report << in.rdbuf();
    WriteBenchJson(flags, name,
                   "\"google_benchmark\": " +
                       (report.str().empty() ? std::string("null") : report.str()));
    std::remove(report_path.c_str());
  }
  return 0;
}

}  // namespace benchutil
}  // namespace plan9

#define P9_BENCHMARK_MAIN(name)                              \
  int main(int argc, char** argv) {                          \
    return ::plan9::benchutil::RunWithObs(argc, argv, name); \
  }

#endif  // BENCH_BENCH_OBS_H_
