// trace9: cross-node causal tracing, demonstrated and stitched (§6.1 spirit:
// everything — including the trace — is a file you can import).
//
// Demo mode (default): boot a three-node world
//
//   helix ── musca (gateway) ── tern (server)
//
// where tern exports its root over IL, musca imports it at /n/tern and
// re-exports its own root, and helix imports musca at /n/gw.  With
// `trace sample 1` written to each node's /net/ctl, a helix read of
// /n/gw/n/tern/net/stats fans out spans on every hop: helix's 9p.client.*,
// musca's 9p.server.* relaying into its own 9p.client.*, tern's
// 9p.server.*, each recorded in its own node's ring.  trace9 then walks the
// local and imported /net/trace files, stitches the span records into
// per-trace trees, and prints each tree with per-hop latency attribution
// plus a critical-path summary.
//
// Stitch mode: `trace9 --stitch-file=PATH` parses span records out of any
// flight-recorder dump (e.g. the chaos CI artifact), prints the trees, and
// with --fail-orphans / --min-hops=N exits nonzero when a span's parent was
// never seen or no tree reaches N hops — the CI gate for context loss.
//
//   trace9 [--dump=PATH] [--fail-orphans] [--min-hops=N]
//   trace9 --stitch-file=PATH [--fail-orphans] [--min-hops=N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ns/proc.h"
#include "src/obs/span.h"
#include "src/obs/stitch.h"
#include "src/obs/trace.h"
#include "src/svc/exportfs.h"
#include "src/world/boot.h"
#include "src/world/node.h"

using namespace plan9;

namespace {

const char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\n"
    "sys=musca\n\tip=135.104.9.6\n\til=exportfs port=17008\n"
    "sys=tern\n\tip=135.104.9.42\n\til=9fs port=17007\n";

int Report(const std::vector<obs::SpanTree>& trees, bool fail_orphans,
           size_t min_hops) {
  if (trees.empty()) {
    std::printf("no traces found\n");
  }
  size_t orphan_total = 0;
  int max_depth = 0;
  for (const auto& tree : trees) {
    std::printf("%s", obs::RenderSpanTree(tree).c_str());
    std::printf("  critical path: %s\n\n", obs::CriticalPath(tree).c_str());
    orphan_total += tree.orphans.size();
    max_depth = std::max(max_depth, obs::SpanTreeDepth(tree));
  }
  std::printf("-- per-hop latency --\n%s", obs::PerHopSummary(trees).c_str());
  int rc = 0;
  if (fail_orphans && orphan_total > 0) {
    std::fprintf(stderr, "FAIL: %zu orphan span(s) — parent id never seen\n",
                 orphan_total);
    rc = 1;
  }
  if (min_hops > 0 && max_depth < static_cast<int>(min_hops)) {
    std::fprintf(stderr, "FAIL: deepest trace has %d hop(s), need %zu\n",
                 max_depth, min_hops);
    rc = 1;
  }
  return rc;
}

int StitchFile(const std::string& path, bool fail_orphans, size_t min_hops) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace9: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto spans = obs::ParseSpans(text.str());
  std::printf("%zu span(s) in %s\n\n", spans.size(), path.c_str());
  return Report(obs::StitchSpans(spans), fail_orphans, min_hops);
}

}  // namespace

int main(int argc, char** argv) {
  std::string stitch_path;
  std::string dump_path;
  bool fail_orphans = false;
  size_t min_hops = 0;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--stitch-file=", 0) == 0) {
      stitch_path = arg.substr(14);
    } else if (arg.rfind("--dump=", 0) == 0) {
      dump_path = arg.substr(7);
    } else if (arg == "--fail-orphans") {
      fail_orphans = true;
    } else if (arg.rfind("--min-hops=", 0) == 0) {
      min_hops = static_cast<size_t>(std::atoi(arg.c_str() + 11));
    } else {
      std::fprintf(stderr,
                   "usage: trace9 [--stitch-file=PATH] [--dump=PATH] "
                   "[--fail-orphans] [--min-hops=N]\n");
      return 2;
    }
  }
  if (!stitch_path.empty()) {
    return StitchFile(stitch_path, fail_orphans, min_hops);
  }

  // --- demo world: helix -> musca (gateway) -> tern --------------------------
  EtherSegment ether(LinkParams::Ether10());
  auto db = std::make_shared<Ndb>();
  if (!db->Load(kNdb).ok()) {
    std::fprintf(stderr, "ndb load failed\n");
    return 1;
  }
  Node helix("helix"), musca("musca"), tern("tern");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  musca.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                 Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
  tern.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 3},
                Ipv4Addr::FromOctets(135, 104, 9, 42), Ipv4Addr{0xffffff00});
  if (!BootNetwork(&helix, db, kNdb).ok() || !BootNetwork(&musca, db, kNdb).ok() ||
      !BootNetwork(&tern, db, kNdb).ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }

  // Head sampling on every node, through the file interface like any other
  // program: each node samples the roots it starts.
  Node* nodes[] = {&helix, &musca, &tern};
  for (Node* n : nodes) {
    if (!n->NewProc()->WriteFile("/net/ctl", "trace sample 1").ok()) {
      std::fprintf(stderr, "trace sample ctl failed on %s\n", n->sysname().c_str());
      return 1;
    }
  }

  // tern exports its root; musca imports it into the *base* namespace (so
  // musca's own exportfs serves it onward) and re-exports; helix imports the
  // gateway.  The classic multi-hop import chain.  Managed imports so exit
  // dismantles each session in reverse declaration order and the exporters
  // can join their handlers.
  ImportOptions iopts;
  iopts.flags = kMRepl;
  auto ternfs = StartExportfs(
      std::shared_ptr<Proc>(tern.NewProc().release()), "il!*!9fs");
  if (!ternfs.ok()) {
    std::fprintf(stderr, "tern exportfs failed\n");
    return 1;
  }
  auto muscaproc = musca.NewProc();
  auto tern_import =
      ImportManaged(muscaproc.get(), "il!tern!9fs", "/", "/n/tern", iopts);
  if (!tern_import.ok()) {
    std::fprintf(stderr, "musca import failed: %s\n",
                 tern_import.error().message().c_str());
    return 1;
  }
  auto gwfs = StartExportfs(
      std::shared_ptr<Proc>(musca.NewProc().release()), "il!*!exportfs");
  if (!gwfs.ok()) {
    std::fprintf(stderr, "musca exportfs failed\n");
    return 1;
  }
  auto helixproc = helix.NewProcPrivate();
  auto gw_import =
      ImportManaged(helixproc.get(), "il!musca!exportfs", "/", "/n/gw", iopts);
  if (!gw_import.ok()) {
    std::fprintf(stderr, "helix import failed: %s\n",
                 gw_import.error().message().c_str());
    return 1;
  }

  // Traced traffic: each read from helix crosses two 9P hops.
  for (int i = 0; i < 3; i++) {
    auto remote = helixproc->ReadFile("/n/gw/n/tern/net/stats");
    if (!remote.ok()) {
      std::fprintf(stderr, "remote read failed: %s\n",
                   remote.error().message().c_str());
      return 1;
    }
  }
  // Sampling off everywhere before the harvest, so reading the traces
  // starts no new ones.
  for (Node* n : nodes) {
    (void)n->NewProc()->WriteFile("/net/ctl", "trace sample 0", /*create=*/false);
  }

  // Harvest the span records the way an operator would: this node's
  // /net/trace plus the imported ones.
  std::string text;
  for (const char* path :
       {"/net/trace", "/n/gw/net/trace", "/n/gw/n/tern/net/trace"}) {
    auto t = helixproc->ReadFile(path);
    if (t.ok()) {
      text += *t;
    }
  }
  if (!dump_path.empty()) {
    std::ofstream out(dump_path);
    out << text;
  }
  auto spans = obs::ParseSpans(text);
  std::printf("trace9: %zu span(s) harvested across 3 nodes\n\n", spans.size());
  return Report(obs::StitchSpans(spans), fail_orphans, min_hops);
}
