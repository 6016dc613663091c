// p9bench: one workload of plan9net's benchmark, in this process.
//
//   p9bench --workload rpc9p_il|bulk_il|bulk_tcp|dial_il --seed N
//           --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 prints the end-to-end metrics of one measured phase of S
// seconds; --trace 1 prints the per-layer ledger.  The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}; the lines before
// it repeat the figures for people, with the run's provenance.
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"

#ifndef P9BENCH_BUILD_TYPE
#define P9BENCH_BUILD_TYPE "unknown"
#endif

namespace p9bench {
namespace {

// The checkers' macros are global compile definitions, so this translation
// unit sees exactly what the library was built with.
#if defined(PLAN9NET_LOCKCHECK)
constexpr bool kLockcheck = true;
#else
constexpr bool kLockcheck = false;
#endif
#if defined(PLAN9NET_HOTCHECK)
constexpr bool kHotcheck = true;
#else
constexpr bool kHotcheck = false;
#endif

// A run measures kRounds rounds, each on a fresh world after
// kSetupsPerRound set-ups in a row (the last world is kept), and each round
// is cut into kWindowsPerRound windows.  Metrics are medians over all the
// windows: single windows swing by 10-15% with hand-off timing and host
// load, and fresh threads per round average out where the scheduler placed
// them.  setup_s is the median of all set-ups.
constexpr int kRounds = 5;
constexpr int kWindowsPerRound = 6;
constexpr int kSetupsPerRound = 4;
constexpr double kWarmupSeconds = 0.3;
// An op slower than this counts as failed (failed_share).
constexpr double kDeadlineUs = 1e6;
// Fixed op counts of the traced run's probes.
constexpr int kFileProbeOps = 1000;
constexpr int kDialProbeOps = 400;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// One closed-loop measured phase.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // the op returned an error
  uint64_t late = 0;    // succeeded, but past the deadline
  std::vector<double> lat_us;
  double elapsed_s = 0;
  uint64_t verified_bytes = 0;
  Usage before, after;

  double ops_per_s() const { return static_cast<double>(attempted) / elapsed_s; }
  double PerOp(double total) const { return total / static_cast<double>(attempted); }
};

Phase RunPhase(Workload* wl, double seconds, Spans* spans) {
  Phase ph;
  ph.lat_us.reserve(1 << 16);
  ph.before = Usage::Now();
  auto start = Clock::now();
  auto stop = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
  uint64_t ok_ops = 0;
  while (Clock::now() < stop) {
    auto t = Clock::now();
    bool ok = wl->Op(spans);
    double us = UsSince(t);
    ph.attempted++;
    if (!ok) {
      // A failed op misses every latency limit; it stays in the samples.
      ph.failed++;
      us = std::max(us, kDeadlineUs);
    } else {
      ok_ops++;
      if (us > kDeadlineUs) ph.late++;
    }
    ph.lat_us.push_back(us);
  }
  if (!wl->EndPhase(ok_ops, &ph.verified_bytes)) {
    ph.attempted++;  // the phase-end exchange is an op that failed
    ph.failed++;
  }
  ph.elapsed_s = UsSince(start) / 1e6;
  ph.after = Usage::Now();
  return ph;
}

struct Metric {
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), v,
                metric.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

std::map<std::string, Metric> EndToEnd(const std::vector<Phase>& windows, double setup_s) {
  auto across = [&windows](auto per_window) {
    std::vector<double> v;
    for (const Phase& ph : windows) v.push_back(per_window(ph));
    return Median(std::move(v));
  };
  return {
      {"setup_s", {setup_s, "s"}},
      {"ops_per_s", {across([](const Phase& ph) { return ph.ops_per_s(); }), "1/s"}},
      {"mb_per_s", {across([](const Phase& ph) {
                      return static_cast<double>(ph.verified_bytes) / (1024.0 * 1024.0) /
                             ph.elapsed_s;
                    }),
                    "MiB/s"}},
      {"op_p50_us", {across([](const Phase& ph) { return Quantile(ph.lat_us, 0.50); }), "us"}},
      {"op_p99_us", {across([](const Phase& ph) { return Quantile(ph.lat_us, 0.99); }), "us"}},
      {"cpu_us_per_op", {across([](const Phase& ph) {
                           return ph.PerOp(ph.after.process_cpu_us - ph.before.process_cpu_us);
                         }),
                         "us"}},
      {"peak_rss_mb", {PeakRssMb(), "MiB"}},
  };
}

// Worlds are never destroyed while the process runs: tearing a Node down
// can free an IL conversation whose timer still fires (a library defect,
// see README.md).  A finished workload is quiesced and parked here, and
// main() ends the process with _Exit once the result is printed.
void Retire(std::unique_ptr<Workload> wl) {
  static auto* graveyard = new std::vector<std::unique_ptr<Workload>>;
  wl->Quiesce();
  graveyard->push_back(std::move(wl));
}

// kSetupsPerRound set-ups in a row, each a fresh world; keeps the last and
// warms it up so lazy set-up and caches settle before anything is timed.
std::unique_ptr<Workload> SetUp(const Args& args, std::vector<double>* setup_s) {
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetupsPerRound; k++) {
    if (wl != nullptr) Retire(std::move(wl));
    auto next = MakeWorkload(args.workload);
    auto t = Clock::now();
    bool ok = next->Setup(args.seed);
    setup_s->push_back(UsSince(t) / 1e6);
    if (!ok) {
      std::fprintf(stderr, "p9bench: %s set-up failed\n", args.workload.c_str());
      return nullptr;
    }
    wl = std::move(next);
  }
  (void)RunPhase(wl.get(), kWarmupSeconds, nullptr);
  return wl;
}

// The traced run: an untraced phase and a traced phase of half the seconds
// each (their gap is the tracing overhead), then the probes.
std::map<std::string, Metric> Ledger(const Args& args, Workload* wl, Phase* traced,
                                     int* probe_failures, bool* probes_correct) {
  Phase plain = RunPhase(wl, args.seconds / 2, nullptr);

  Spans spans;
  auto snap0 = RegistrySnap::Take();
  uint64_t allocs0 = allocs::Count();
  uint64_t bytes0 = allocs::Bytes();
  allocs::Enable(true);
  *traced = RunPhase(wl, args.seconds / 2, &spans);
  allocs::Enable(false);
  uint64_t allocs1 = allocs::Count();
  uint64_t bytes1 = allocs::Bytes();
  auto snap1 = RegistrySnap::Take();
  const Phase& ph = *traced;
  auto per_op = [&](const char* counter) { return ph.PerOp(snap1.Delta(snap0, counter)); };

  wl->Quiesce();
  *probe_failures = 0;
  *probes_correct = true;
  double rpc_p50_us = snap1.RpcLatencyQuantile(snap0, 0.5);
  if (spans.open.empty()) {
    auto p0 = RegistrySnap::Take();
    *probe_failures +=
        FileProbe(wl->world(), args.seed, kFileProbeOps, &spans, probes_correct);
    rpc_p50_us = RegistrySnap::Take().RpcLatencyQuantile(p0, 0.5);
  }
  if (spans.dial.empty()) {
    *probe_failures += DialProbe(wl->world(), kDialProbeOps, &spans, probes_correct);
  }
  MicroProbes micro = RunMicroProbes(args.seed, wl->world()->db());

  double dial_us = Median(spans.dial);
  double steps_us = Median(spans.cs_query) + Median(spans.clone_open) +
                    Median(spans.connect) + Median(spans.data_open);
  double hits = snap1.Delta(snap0, "stream.block.pool-hit");
  double misses = snap1.Delta(snap0, "stream.block.pool-miss");
  double payload = static_cast<double>(ph.verified_bytes);
  double process_cpu = ph.after.process_cpu_us - ph.before.process_cpu_us;
  double caller_cpu = ph.after.thread_cpu_us - ph.before.thread_cpu_us;

  return {
      // ns / ninep
      {"ns.open_us", {Median(spans.open), "us"}},
      {"ns.read_us", {Median(spans.read), "us"}},
      {"ns.write_us", {Median(spans.write), "us"}},
      {"ns.close_us", {Median(spans.close), "us"}},
      {"ninep.rpcs_per_op", {per_op("ninep.rpc.count"), "count"}},
      {"ninep.rpc_p50_us", {rpc_p50_us, "us"}},
      {"ninep.fcall.pack_ns", {micro.pack_ns, "ns"}},
      {"ninep.fcall.unpack_ns", {micro.unpack_ns, "ns"}},
      {"ninep.pipe_rpc_us", {micro.pipe_rpc_us, "us"}},
      // dial / csdns / ndb / dev
      {"dial.dial_us", {dial_us, "us"}},
      {"dial.failures_per_op", {per_op("net.dial.failures"), "count"}},
      {"dial.step_gap_pct", {100.0 * (steps_us - dial_us) / dial_us, "%"}},
      {"csdns.cs_query_us", {Median(spans.cs_query), "us"}},
      {"dev.clone_open_us", {Median(spans.clone_open), "us"}},
      {"inet.connect_us", {Median(spans.connect), "us"}},
      {"dev.data_open_us", {Median(spans.data_open), "us"}},
      {"ndb.lookup_us", {micro.ndb_lookup_us, "us"}},
      // inet / stream / sim data path
      {"inet.il.msgs_per_op", {per_op("net.il.msgs-sent"), "count"}},
      {"inet.il.resends_per_op", {per_op("net.il.resends"), "count"}},
      {"inet.il.queries_per_op", {per_op("net.il.queries"), "count"}},
      {"inet.tcp.segs_per_op", {per_op("net.tcp.segs-sent"), "count"}},
      {"inet.tcp.resends_per_op", {per_op("net.tcp.resends"), "count"}},
      {"inet.ip.packets_per_op", {per_op("net.ip.packets-sent"), "count"}},
      {"inet.ip.frags_per_op", {per_op("net.ip.frags-sent"), "count"}},
      {"dev.ether.frames_in_per_op", {per_op("net.ether.frames-in"), "count"}},
      {"sim.frames_per_op", {per_op("sim.media.frames-sent"), "count"}},
      {"sim.wire_bytes_per_payload_byte",
       {snap1.Delta(snap0, "sim.media.bytes-sent") / payload, "ratio"}},
      {"stream.copies_per_op", {per_op("stream.block.copies"), "count"}},
      {"stream.pool_hit_rate", {hits / (hits + misses), "ratio"}},
      {"stream.echo_128_ns", {micro.echo128_ns, "ns"}},
      {"stream.echo_8k_ns", {micro.echo8k_ns, "ns"}},
      {"all.allocs_per_op", {ph.PerOp(static_cast<double>(allocs1 - allocs0)), "count"}},
      {"all.alloc_bytes_per_op",
       {ph.PerOp(static_cast<double>(bytes1 - bytes0)), "bytes"}},
      // task
      {"task.timer_fire_us", {micro.timer_fire_us, "us"}},
      {"sim.deliver_us", {micro.deliver_us, "us"}},
      {"task.vcsw_per_op", {ph.PerOp(ph.after.vcsw - ph.before.vcsw), "count"}},
      {"task.ivcsw_per_op", {ph.PerOp(ph.after.ivcsw - ph.before.ivcsw), "count"}},
      {"task.caller_cpu_us_per_op", {ph.PerOp(caller_cpu), "us"}},
      {"task.kproc_cpu_us_per_op", {ph.PerOp(process_cpu - caller_cpu), "us"}},
      {"bench.trace_overhead_pct",
       {100.0 * (plain.ops_per_s() - ph.ops_per_s()) / plain.ops_per_s(), "%"}},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: p9bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--commit ID]\n");
    return 2;
  }
  if (kLockcheck || kHotcheck) {
    std::fprintf(stderr,
                 "p9bench: refusing to record a result from a build with lockcheck "
                 "or hotcheck on; configure with -DPLAN9NET_LOCKCHECK=OFF "
                 "-DPLAN9NET_HOTCHECK=OFF\n");
    return 2;
  }
  if (MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "p9bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf(
      "provenance {\"build_type\": \"%s\", \"lockcheck\": %s, \"hotcheck\": %s, "
      "\"media\": \"ether uncapped mtu=1514\", \"nproc\": %u, \"seed\": %llu, "
      "\"commit\": \"%s\", \"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
      P9BENCH_BUILD_TYPE, kLockcheck ? "true" : "false", kHotcheck ? "true" : "false",
      std::thread::hardware_concurrency(), static_cast<unsigned long long>(args.seed),
      args.commit.c_str(), args.workload.c_str(), args.seconds, args.trace);

  std::vector<double> setups;
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  size_t samples = 0;
  bool correct = true;
  if (args.trace == 0) {
    std::vector<Phase> windows;
    for (int r = 0; r < kRounds; r++) {
      auto wl = SetUp(args, &setups);
      if (wl == nullptr) return 1;
      for (int w = 0; w < kWindowsPerRound; w++) {
        windows.push_back(
            RunPhase(wl.get(), args.seconds / (kRounds * kWindowsPerRound), nullptr));
      }
      correct = correct && wl->correct();
      Retire(std::move(wl));
    }
    metrics = EndToEnd(windows, Median(setups));
    for (const Phase& ph : windows) {
      attempted += ph.attempted;
      failed += ph.failed + ph.late;
      samples += ph.lat_us.size();
    }
  } else {
    auto wl = SetUp(args, &setups);
    if (wl == nullptr) return 1;
    Phase ph;
    int probe_failures = 0;
    bool probes_correct = true;
    metrics = Ledger(args, wl.get(), &ph, &probe_failures, &probes_correct);
    std::printf("probe ops failed: %d\n", probe_failures);
    correct = wl->correct() && probes_correct;
    attempted = ph.attempted;
    failed = ph.failed + ph.late;
    samples = ph.lat_us.size();
    Retire(std::move(wl));
  }
  std::printf("%s: %llu ops, %zu latency samples, failed_share %.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(attempted), samples,
              static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1)));
  PrintResult(correct && attempted > 0, attempted, failed, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace p9bench

int main(int argc, char** argv) {
  int rc = p9bench::Main(argc, argv);
  std::fflush(stdout);
  std::_Exit(rc);  // skips teardown: see Retire
}
