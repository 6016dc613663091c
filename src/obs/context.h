// One node's observability context (DESIGN.md §9, §12).
//
// Paper §2: each machine's devices describe that machine as files.  A
// Context is what one machine's /net/stats, /net/trace and /net/ctl read:
// its sysname, its metrics registry, its flight recorder and its tracer.
// Node::Kernel owns one and hands it to IP, the protocol devices, devproto's
// /net files and every Proc; the 9P client and server, dial, DNS and
// exportfs take it from their Proc.  A crash discards the context with its
// kernel, so a restarted machine starts with fresh counters, an empty ring
// and sampling off.
//
// One process root remains.  Its registry is MetricsRegistry::Default(),
// which every node's counters and histograms feed, so process totals read as
// the sum over nodes.  Code below any node counts and records there: the
// media and fault injection (sim.*), the chaos engine and node lifecycle
// (chaos.*), the block pool and queue gauge (stream.*), hotcheck.  An
// object built outside any node (a bare Proc, NinepClient or NinepServer in
// a unit test) uses the root by default.
#ifndef SRC_OBS_CONTEXT_H_
#define SRC_OBS_CONTEXT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/result.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace plan9 {
namespace obs {

class Context {
 public:
  static Context& Root();

  // A node's context, fed into the root.  Span and trace ids are drawn from
  // a stream seeded from the sysname and the boot generation, so they stay
  // unique across the nodes of a process and across a node's restarts.
  Context(std::string sysname, uint64_t generation);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // The label on this node's span records ("" for the root).
  const std::string& sysname() const { return sysname_; }
  MetricsRegistry& metrics() { return metrics_; }
  FlightRecorder& recorder() { return recorder_; }
  Tracer& tracer() { return tracer_; }

  // Counters and histograms of the node as a whole, rather than of one
  // conversation or client.
  struct Stats : MetricSet {
    using MetricSet::MetricSet;
    Histogram il_rtt{this, "net.il.rtt"};  // microseconds, as the others
    Histogram tcp_rtt{this, "net.tcp.rtt"};
    Histogram rpc_latency{this, "ninep.rpc.latency"};  // 9P client round trips
    Counter rpcs_served{this, "ninep.srv.rpcs"};
    Counter dial_attempts{this, "net.dial.attempts"};
    Counter dial_successes{this, "net.dial.successes"};
    Counter dial_failures{this, "net.dial.failures"};
    // Recovery accounting, asserted by the chaos invariants.
    Counter deadman_reaped{this, "recovery.il.deadman-reaped"};
    Counter import_redials{this, "recovery.ninep.redials"};
    Counter import_remounts{this, "recovery.ninep.remounts"};
    // Events the recorder overwrote before any reader saw them.
    Counter trace_dropped{this, "obs.trace.dropped"};
  };
  Stats& stats() { return stats_; }

  // The /net/ctl grammar:
  //   trace on [kind...]    enable all kinds, or just the named ones
  //   trace off [kind...]   disable all kinds, or just the named ones
  //   trace sample <n>      head-sample 1/n of the roots this node starts
  //                         (0 off, 1 all); a non-zero n also enables the
  //                         span kind
  //   clear                 drop every recorded event
  Status Ctl(std::string_view msg);
  // What /net/ctl reads back, as ctl-writable lines.
  std::string CtlText();

 private:
  Context();  // the root

  const std::string sysname_;
  MetricsRegistry metrics_;
  Stats stats_{metrics_};
  FlightRecorder recorder_{FlightRecorder::kDefaultCapacity, &stats_.trace_dropped};
  Tracer tracer_;
};

}  // namespace obs
}  // namespace plan9

#endif  // SRC_OBS_CONTEXT_H_
