// netstat: walk a node's /net the way the paper reads it — every protocol
// directory, every conversation's status file, then the registry snapshot in
// /net/stats — over a live 9P-over-IL session, optionally under a fault
// profile.  Demonstrates that all observability is plain files: the same
// walk also runs against a *remote* /net imported with 9P (§6.1).
//
// With --chaos, musca is crashed and restarted between the echo traffic and
// the export, so the final counter section shows the chaos.* / recovery.*
// families moving.  With --trace, helix traces through its /net/ctl and the
// walk ends with helix's /net/trace and the process root's ring, which holds
// the wire's fault events.
//
//   netstat [--profile=burst-loss|reorder|hostile] [--rounds=N] [--trace]
//           [--chaos]
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ns/proc.h"
#include "src/obs/context.h"
#include "src/sim/faults.h"
#include "src/svc/exportfs.h"
#include "src/svc/listen.h"
#include "src/world/boot.h"
#include "src/world/node.h"

using namespace plan9;

namespace {

const char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\n\til=echo port=56789\n"
    "sys=musca\n\tip=135.104.9.6\n\til=exportfs port=17007\n";

// Print every conversation's status line under each protocol directory,
// then the stats file — one walk serves both local and imported /net.
void WalkNet(Proc* proc, const std::string& net, const char* heading) {
  std::printf("== %s (%s) ==\n", heading, net.c_str());
  auto entries = proc->ReadDir(net);
  if (!entries.ok()) {
    std::printf("  (unreadable: %s)\n", entries.error().message().c_str());
    return;
  }
  for (const auto& d : *entries) {
    if (!d.qid.IsDir()) {
      continue;
    }
    auto convs = proc->ReadDir(net + "/" + d.name);
    if (!convs.ok()) {
      continue;
    }
    for (const auto& c : *convs) {
      if (!c.qid.IsDir()) {
        continue;
      }
      auto status =
          proc->ReadFile(net + "/" + d.name + "/" + c.name + "/status");
      if (status.ok() && !status->empty()) {
        std::printf("  %s", status->c_str());
      }
    }
  }
  auto stats = proc->ReadFile(net + "/stats");
  if (stats.ok()) {
    std::printf("\n-- %s/stats --\n%s", net.c_str(), stats->c_str());
  }
}

// The process root's registry holds the lifecycle counters (a machine
// cannot count its own crashes) and the sum over both nodes of the recovery
// and recorder-health counters each /net/stats showed above; print just
// those families (obs.trace.dropped says whether a flight recorder
// overwrote events nobody had read yet).
void PrintChaosCounters() {
  std::istringstream all(obs::MetricsRegistry::Default().RenderText());
  std::printf("\n-- chaos/recovery/obs counters --\n");
  std::string line;
  while (std::getline(all, line)) {
    if (line.rfind("chaos.", 0) == 0 || line.rfind("recovery.", 0) == 0 ||
        line.rfind("obs.", 0) == 0) {
      std::printf("%s\n", line.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_name = "none";
  int rounds = 50;
  bool trace = false;
  bool chaos = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--profile=", 0) == 0) {
      profile_name = arg.substr(10);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      rounds = std::atoi(arg.c_str() + 9);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else {
      std::fprintf(stderr,
                   "usage: netstat [--profile=burst-loss|reorder|hostile] "
                   "[--rounds=N] [--trace] [--chaos]\n");
      return 2;
    }
  }

  LinkParams params = LinkParams::Ether10();
  if (profile_name == "burst-loss") {
    params.faults = FaultProfile::BurstLoss(0.05);
  } else if (profile_name == "reorder") {
    params.faults =
        FaultProfile::Reorder(0.10, std::chrono::microseconds(3000));
  } else if (profile_name == "hostile") {
    params.faults = FaultProfile::Hostile();
  } else if (profile_name != "none") {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    return 2;
  }

  EtherSegment ether(params);
  auto db = std::make_shared<Ndb>();
  if (!db->Load(kNdb).ok()) {
    std::fprintf(stderr, "ndb load failed\n");
    return 1;
  }
  Node helix("helix"), musca("musca");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  musca.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                 Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
  if (!BootNetwork(&helix, db, kNdb).ok() ||
      !BootNetwork(&musca, db, kNdb).ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }

  auto hp = helix.NewProc();
  if (trace) {
    (void)hp->WriteFile("/net/ctl", "trace on il dial 9p", /*create=*/false);
    obs::Context::Root().recorder().Enable(static_cast<uint32_t>(obs::TraceKind::kFault));
  }

  // Traffic source 1: IL echo round trips.  Serve echo on helix, dial from
  // musca, so both nodes' counters move.
  auto echo = StartEchoService(
      std::shared_ptr<Proc>(helix.NewProc().release()), "il!*!echo");
  if (!echo.ok()) {
    std::fprintf(stderr, "echo announce failed\n");
    return 1;
  }
  auto client = musca.NewProc();
  auto fd = Dial(client.get(), "il!135.104.9.31!56789");
  if (!fd.ok()) {
    std::fprintf(stderr, "dial failed: %s\n", fd.error().message().c_str());
    return 1;
  }
  std::string ping(512, 'p');
  for (int i = 0; i < rounds; i++) {
    if (!client->WriteString(*fd, ping).ok()) {
      break;
    }
    (void)client->ReadString(*fd, ping.size() * 2);
  }

  // Optional chaos cycle: crash musca (silent on the wire — the echo
  // client's conversation dies without a goodbye) and reboot it from its
  // recorded spec before the export below, so the counter section at the
  // end shows the lifecycle families moving.
  if (chaos) {
    musca.Crash();
    Status back = musca.Restart();
    if (!back.ok()) {
      std::fprintf(stderr, "restart failed: %s\n", back.error().message().c_str());
      return 1;
    }
    std::printf("chaos: musca crashed and restarted (generation %d)\n",
                musca.generation());
  }

  // Traffic source 2: a 9P-over-IL session — musca exports its /net, helix
  // imports it, and the final walk reads musca's counters remotely.
  auto exportsvc = StartExportfs(
      std::shared_ptr<Proc>(musca.NewProc().release()), "il!*!exportfs");
  if (!exportsvc.ok()) {
    std::fprintf(stderr, "exportfs failed\n");
    return 1;
  }
  auto importer = helix.NewProcPrivate();
  Status imported = Import(importer.get(), "il!135.104.9.6!17007", "/net",
                           "/n/muscanet", kMRepl);

  std::printf("netstat: profile=%s rounds=%d\n\n", profile_name.c_str(),
              rounds);
  WalkNet(hp.get(), "/net", "helix local");
  auto mp = musca.NewProc();
  std::printf("\n");
  WalkNet(mp.get(), "/net", "musca local");
  if (imported.ok()) {
    std::printf("\n");
    WalkNet(importer.get(), "/n/muscanet", "musca via 9P import");
  } else {
    std::printf("\n(import of musca /net failed: %s)\n",
                imported.error().message().c_str());
  }
  PrintChaosCounters();

  if (trace) {
    auto tr = hp->ReadFile("/net/trace");
    if (tr.ok()) {
      std::printf("\n-- helix /net/trace --\n%s", tr->c_str());
    }
    std::printf("\n-- root trace (the wire) --\n%s",
                obs::Context::Root().recorder().RenderText().c_str());
    (void)hp->WriteFile("/net/ctl", "trace off", /*create=*/false);
    obs::Context::Root().recorder().Disable(static_cast<uint32_t>(obs::TraceKind::kFault));
  }
  (void)client->Close(*fd);
  return 0;
}
