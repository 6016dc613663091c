// Chaos engine: crash/restart lifecycle and end-to-end recovery invariants.
//
// The claims under test: a crash is silent on the wire (survivors learn of
// it only through IL's deadman, a 9P deadline, or a failed dial — never
// shared memory), a restart replays the recorded boot so services come back
// under the same names, the dial library rides out a server that reboots
// mid-backoff, ImportManaged re-establishes a dead mount, and a seeded
// chaos schedule is replayable byte-for-byte from the seed a failing run
// prints.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/obs/context.h"
#include "src/sim/chaos.h"
#include "src/sim/datakit.h"
#include "src/sim/ether_segment.h"
#include "src/sim/faults.h"
#include "src/svc/exportfs.h"
#include "src/svc/listen.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr char kNdb[] = R"(sys=helix
	ip=135.104.9.31
sys=musca
	ip=135.104.9.6
il=echo port=56789
il=9fs port=17008
il=rx port=17009
tcp=echo port=7
)";

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().CounterNamed(name).value();
}

// Two machines on one Ethernet (plus a Datakit switch for the re-attach
// test), with the echo service started *through the lifecycle layer* so a
// restart re-announces it.
class ChaosNetTest : public ::testing::Test {
 protected:
  explicit ChaosNetTest(LinkParams params = LinkParams::Ether10()) : ether_(params) {}

  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());
    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    helix_->AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                     Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
    musca_->AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                     Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
    helix_->AddDatakit(&dk_, "nj/astro/helix");
    musca_->AddDatakit(&dk_, "nj/astro/musca");
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
    ASSERT_TRUE(StartEcho(musca_.get()).ok());
  }

  static Status StartEcho(Node* node) {
    return node->StartService("echo", [](Node* n) {
      return StartEchoService(std::shared_ptr<Proc>(n->NewProc().release()),
                              "il!*!echo");
    });
  }

  EtherSegment ether_;
  DatakitSwitch dk_;
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_;
};

// ---------------------------------------------------------------------------
// Crash semantics
// ---------------------------------------------------------------------------

TEST_F(ChaosNetTest, CrashIsSilentAndSurvivorsLearnFromTheDeadman) {
  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "il!musca!echo", &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "ping");

  musca_->Crash();
  EXPECT_FALSE(musca_->alive());
  // A dead machine runs nothing.
  EXPECT_EQ(musca_->NewProc(), nullptr);
  EXPECT_EQ(musca_->il(), nullptr);
  // Crashing a corpse is a no-op.
  musca_->Crash();

  // No FIN, close cell, or Rhangup crossed the wire: the conversation is
  // still Established on the survivor.  Leave data unacknowledged and the
  // query ladder runs into the deadman.
  ASSERT_TRUE(client->WriteString(*fd, "doomed").ok());
  n = client->Read(*fd, buf, sizeof buf);
  EXPECT_TRUE(!n.ok() || *n == 0) << "read must return, not hang";

  auto sfd = client->Open(dir + "/stats", kORead);
  ASSERT_TRUE(sfd.ok());
  auto text = client->ReadString(*sfd, 1024);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("deadman: 1"), std::string::npos) << *text;
  (void)client->Close(*sfd);
  (void)client->Close(*fd);
}

TEST_F(ChaosNetTest, RestartReannouncesServicesUnderTheSameName) {
  musca_->Crash();
  ASSERT_TRUE(musca_->Restart().ok());
  EXPECT_TRUE(musca_->alive());
  EXPECT_EQ(musca_->generation(), 1);

  // The recorded echo service came back through the *new* kernel's /net —
  // same name, fresh announce — and a survivor can simply redial it.
  auto client = helix_->NewProc();
  DialOptions opts;
  opts.attempts = 20;
  opts.backoff = milliseconds(50);
  opts.max_backoff = milliseconds(300);
  auto fd = Dial(client.get(), "il!musca!echo", opts);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "again").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "again");
  (void)client->Close(*fd);

  // Restarting a live machine is refused.
  EXPECT_FALSE(musca_->Restart().ok());
}

TEST_F(ChaosNetTest, RestartStormSurvivesRepeatedReboots) {
  uint64_t crashes0 = CounterValue("chaos.node.crashes");
  for (int round = 1; round <= 3; round++) {
    musca_->Crash();
    ASSERT_TRUE(musca_->Restart().ok()) << "round " << round;
    EXPECT_EQ(musca_->generation(), round);
    auto client = helix_->NewProc();
    DialOptions opts;
    opts.attempts = 20;
    opts.backoff = milliseconds(50);
    opts.max_backoff = milliseconds(300);
    auto fd = Dial(client.get(), "il!musca!echo", opts);
    ASSERT_TRUE(fd.ok()) << "round " << round << ": " << fd.error().message();
    ASSERT_TRUE(client->WriteString(*fd, "r").ok());
    char buf[4];
    ASSERT_TRUE(client->Read(*fd, buf, sizeof buf).ok());
    (void)client->Close(*fd);
  }
  EXPECT_EQ(CounterValue("chaos.node.crashes") - crashes0, 3u);
}

TEST_F(ChaosNetTest, DatakitHostReattachesAfterRestart) {
  // The switch still holds the graveyard kernel's idea of "nj/astro/musca"
  // unless Crash unplugged it; a restart must be able to re-register the
  // same host name (the "address in use" stale-registry trap).
  musca_->Crash();
  ASSERT_TRUE(musca_->Restart().ok());

  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "dk!*!rx", &adir);
  ASSERT_TRUE(afd.ok()) << afd.error().message();
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    char buf[16];
    auto n = server->Read(*dfd, buf, sizeof buf);
    if (n.ok()) {
      (void)server->Write(*dfd, buf, *n);
    }
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });
  auto client = helix_->NewProc();
  auto fd = Dial(client.get(), "dk!nj/astro/musca!rx");
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "dk").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "dk");
  (void)client->Close(*fd);
  listener.join();
  (void)server->Close(*afd);
}

// ---------------------------------------------------------------------------
// Dial retry across a reboot (satellite: server comes up mid-backoff)
// ---------------------------------------------------------------------------

TEST_F(ChaosNetTest, DialRetryRidesOutAServerReboot) {
  musca_->Crash();
  std::thread resurrector([&] {
    std::this_thread::sleep_for(milliseconds(400));
    ASSERT_TRUE(musca_->Restart().ok());
  });

  // The first attempts run against a silent or rebooting machine; once the
  // restarted kernel answers (with a reset, then an accept after the echo
  // service re-announces), the retrying dial completes.
  auto client = helix_->NewProc();
  DialOptions opts;
  opts.attempts = 60;
  opts.backoff = milliseconds(50);
  opts.multiplier = 1.5;
  opts.max_backoff = milliseconds(300);
  opts.jitter_seed = 11;
  auto fd = Dial(client.get(), "il!musca!echo", opts);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "back").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "back");
  (void)client->Close(*fd);
  resurrector.join();
}

// ---------------------------------------------------------------------------
// ImportManaged: remount-on-redial (satellite: OnDead now has a consumer)
// ---------------------------------------------------------------------------

TEST_F(ChaosNetTest, ImportManagedRemountsAfterServerCrashAndRestart) {
  ASSERT_TRUE(musca_->StartService("exportfs", [](Node* n) {
    return StartExportfs(std::shared_ptr<Proc>(n->NewProc().release()),
                         "il!*!9fs");
  }).ok());

  auto proc = helix_->NewProc();
  ImportOptions opts;
  opts.rpc_timeout = milliseconds(800);
  opts.redial.attempts = 40;
  opts.redial.backoff = milliseconds(100);
  opts.redial.max_backoff = milliseconds(300);
  auto svc = ImportManaged(proc.get(), "il!musca!9fs", "/", "/n/musca", opts);
  ASSERT_TRUE(svc.ok()) << svc.error().message();
  ASSERT_TRUE(proc->Stat("/n/musca/net").ok());

  uint64_t redials0 = CounterValue("recovery.ninep.redials");
  uint64_t remounts0 = CounterValue("recovery.ninep.remounts");

  musca_->Crash();
  std::thread resurrector([&] {
    std::this_thread::sleep_for(milliseconds(500));
    ASSERT_TRUE(musca_->Restart().ok());
  });

  // Keep poking the mount: the first stat after the crash times out, the
  // unanswered flush declares the client dead, OnDead kicks the remounter,
  // and eventually a stat answers through the *new* session.
  bool recovered = false;
  auto deadline = std::chrono::steady_clock::now() + seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (proc->Stat("/n/musca/net").ok() &&
        CounterValue("recovery.ninep.remounts") > remounts0) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(milliseconds(200));
  }
  resurrector.join();
  EXPECT_TRUE(recovered) << "mount never came back";
  EXPECT_GT(CounterValue("recovery.ninep.redials"), redials0);
  EXPECT_GT(CounterValue("recovery.ninep.remounts"), remounts0);

  (*svc)->Stop();
}

// ---------------------------------------------------------------------------
// Schedules: scripting, seeding, replay
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, ScriptParsesCommentsSemicolonsAndSorts) {
  ChaosEngine engine;
  ASSERT_TRUE(engine
                  .Script("# a comment\n"
                          "restart t=900ms node=musca; crash t=500ms node=musca\n"
                          "flap t=1s medium=ether0 down=200ms\n")
                  .ok());
  EXPECT_EQ(engine.EventCount(), 3u);
  EXPECT_EQ(engine.ScheduleText(),
            "crash t=500ms node=musca\n"
            "restart t=900ms node=musca\n"
            "flap t=1000ms medium=ether0 down=200ms\n");

  EXPECT_FALSE(engine.Script("crash t=100ms medium=ether0").ok())
      << "crash takes a node, not a medium";
  EXPECT_FALSE(engine.Script("crash node=musca").ok()) << "t= is required";
}

TEST(ChaosSchedule, SeededScheduleIsAPureFunctionOfSeedAndNames) {
  Node gnot("gnot"), helix("helix");
  EtherSegment ether{LinkParams::Ether10()};

  auto build = [&](ChaosEngine& e) {
    e.AddNode(&gnot);
    e.AddNode(&helix);
    e.AddMedium("ether0", &ether);
  };

  ChaosEngine a, b, c;
  build(a);
  build(b);
  build(c);
  a.Seed(42, 12);
  b.Seed(42, 12);
  c.Seed(43, 12);
  EXPECT_GE(a.EventCount(), 12u);
  EXPECT_EQ(a.ScheduleText(), b.ScheduleText()) << "same seed must replay";
  EXPECT_NE(a.ScheduleText(), c.ScheduleText()) << "different seed must differ";

  // The replay contract: the canonical rendering scripts back verbatim.
  std::string canon = a.ScheduleText();
  ChaosEngine d;
  build(d);
  ASSERT_TRUE(d.Script(canon).ok());
  EXPECT_EQ(d.ScheduleText(), canon);

  // And the status file's output (comments + schedule) is itself a script.
  ASSERT_TRUE(d.Script(a.StatusText()).ok());
  EXPECT_EQ(d.ScheduleText(), canon);
}

TEST(ChaosSchedule, SeededScheduleEndsBalanced) {
  Node gnot("gnot");
  EtherSegment ether{LinkParams::Ether10()};
  ChaosEngine engine;
  engine.AddNode(&gnot);
  engine.AddMedium("ether0", &ether);
  engine.Seed(7, 9);
  // Walk the schedule: every crash is eventually restarted, every partition
  // healed, so a completed run leaves the world up.
  int node_down = 0, medium_down = 0;
  for (const auto& line : GetFields(engine.ScheduleText(), "\n")) {
    auto words = Tokenize(line);
    if (words.empty()) {
      continue;
    }
    if (words[0] == "crash") {
      node_down++;
    } else if (words[0] == "restart") {
      node_down--;
    } else if (words[0] == "partition") {
      medium_down++;
    } else if (words[0] == "heal") {
      medium_down--;
    }
    EXPECT_GE(node_down, 0) << line;
    EXPECT_GE(medium_down, 0) << line;
  }
  EXPECT_EQ(node_down, 0);
  EXPECT_EQ(medium_down, 0);
}

TEST_F(ChaosNetTest, NetChaosCtlFileDrivesTheEngine) {
  ChaosEngine engine;
  engine.AddNode(helix_.get());
  engine.AddNode(musca_.get());
  engine.AddMedium("ether0", &ether_);

  auto proc = helix_->NewProc();
  auto fd = proc->Open("/net/chaos", kORdWr);
  ASSERT_TRUE(fd.ok()) << fd.error().message();

  ASSERT_TRUE(proc->WriteString(*fd, "crash musca").ok());
  EXPECT_FALSE(musca_->alive());
  auto text = proc->ReadString(*fd, 4096);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("# node musca dead"), std::string::npos) << *text;
  EXPECT_NE(text->find("# node helix alive"), std::string::npos) << *text;

  ASSERT_TRUE(proc->WriteString(*fd, "restart musca").ok());
  EXPECT_TRUE(musca_->alive());

  // A schedule written through the file runs to completion.
  ASSERT_TRUE(proc->WriteString(*fd,
                                "script crash t=50ms node=musca; "
                                "restart t=150ms node=musca")
                  .ok());
  ASSERT_TRUE(proc->WriteString(*fd, "run").ok());
  EXPECT_TRUE(musca_->alive());
  EXPECT_EQ(musca_->generation(), 2);

  ASSERT_TRUE(proc->WriteString(*fd, "seed 9 4").ok());
  ChaosEngine* current = ChaosEngine::Current();
  ASSERT_EQ(current, &engine);
  EXPECT_EQ(current->seed(), 9u);
  EXPECT_GE(current->EventCount(), 4u);

  EXPECT_FALSE(proc->WriteString(*fd, "crash nonesuch").ok());
  EXPECT_FALSE(proc->WriteString(*fd, "frobnicate").ok());
  (void)proc->Close(*fd);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: seeded chaos + recovery invariants
// ---------------------------------------------------------------------------

uint64_t EnvSeed() {
  const char* s = std::getenv("PLAN9NET_CHAOS_SEED");
  if (s == nullptr || *s == '\0') {
    return 1;
  }
  auto v = ParseU64(s);
  return v.has_value() ? *v : 1;
}

LinkParams EnvProfile() {
  LinkParams params = LinkParams::Ether10();
  const char* p = std::getenv("PLAN9NET_CHAOS_PROFILE");
  std::string profile = p == nullptr ? "clean" : p;
  if (profile == "burst") {
    params.faults = FaultProfile::BurstLoss(0.05);
  } else if (profile == "hostile") {
    params.faults = FaultProfile::Hostile();
  }
  params.seed = 0x5eed ^ EnvSeed();
  return params;
}

class SeededChaosTest : public ChaosNetTest {
 protected:
  SeededChaosTest() : ChaosNetTest(EnvProfile()) {}
};

TEST_F(SeededChaosTest, SeededScheduleRunsAndTheWorldRecovers) {
  // CI's traced-scenario job sets PLAN9NET_TRACE_SAMPLE=1 so every dial and
  // 9P RPC in the scenario emits spans; the dump below then feeds
  // trace9 --stitch-file, which fails the job on orphan spans.  Sampling is
  // per node, set through each node's /net/ctl.
  const char* sample = std::getenv("PLAN9NET_TRACE_SAMPLE");
  if (sample != nullptr) {
    for (Node* n : {helix_.get(), musca_.get()}) {
      ASSERT_TRUE(
          n->NewProc()->WriteFile("/net/ctl", std::string("trace sample ") + sample).ok());
    }
  }
  ASSERT_TRUE(musca_->StartService("exportfs", [](Node* n) {
    return StartExportfs(std::shared_ptr<Proc>(n->NewProc().release()),
                         "il!*!9fs");
  }).ok());

  auto proc = helix_->NewProc();
  ImportOptions iopts;
  iopts.rpc_timeout = milliseconds(800);
  iopts.redial.attempts = 60;
  iopts.redial.backoff = milliseconds(100);
  iopts.redial.max_backoff = milliseconds(300);
  auto import = ImportManaged(proc.get(), "il!musca!9fs", "/", "/n/musca", iopts);
  ASSERT_TRUE(import.ok()) << import.error().message();

  // Only musca crashes (the importer's machine stays up and must recover
  // its view); the shared Ethernet partitions and flaps.
  ChaosEngine engine;
  engine.AddNode(musca_.get());
  engine.AddMedium("ether0", &ether_);
  uint64_t seed = EnvSeed();
  engine.Seed(seed, 6, milliseconds(100), milliseconds(400));

  // Always print the replay recipe; a CI failure must be reproducible from
  // the log alone (write the schedule to /net/chaos via `script`, or call
  // Seed with the same seed over the same names).
  std::fprintf(stderr, "[chaos] seed=%llu profile=%s schedule:\n%s",
               static_cast<unsigned long long>(seed),
               std::getenv("PLAN9NET_CHAOS_PROFILE") == nullptr
                   ? "clean"
                   : std::getenv("PLAN9NET_CHAOS_PROFILE"),
               engine.ScheduleText().c_str());

  InvariantChecker invariants;
  invariants.WatchNode(helix_.get());
  invariants.WatchNode(musca_.get());
  invariants.ExpectService(helix_.get(), "il!musca!echo");
  invariants.ExpectMount(proc.get(), "/n/musca/net");

  // A client keeps touching the mount throughout, so 9P deadlines (not just
  // dials) exercise the recovery path while the schedule runs.
  std::atomic<bool> stop{false};
  std::thread toucher([&] {
    while (!stop.load()) {
      (void)proc->Stat("/n/musca/net");
      std::this_thread::sleep_for(milliseconds(150));
    }
  });

  Status run = engine.Run();
  EXPECT_TRUE(run.ok()) << run.error().message();
  EXPECT_EQ(engine.seed(), seed);
  EXPECT_GT(CounterValue("chaos.sched.events"), 0u);

  Status recovered = invariants.Check(seconds(30));
  stop = true;
  toucher.join();

  // The dump stitches the root's ring (chaos events, crashes, restarts)
  // with each machine's own.
  if (const char* dump = std::getenv("PLAN9NET_CHAOS_DUMP")) {
    std::ofstream out(dump);
    out << "# chaos seed=" << seed << "\n"
        << engine.ScheduleText() << "\n"
        << obs::Context::Root().recorder().RenderText();
    for (Node* n : {helix_.get(), musca_.get()}) {
      if (n->obs() != nullptr) {
        out << n->obs()->recorder().RenderText();
      }
    }
  }
  if (sample != nullptr) {
    for (Node* n : {helix_.get(), musca_.get()}) {
      if (auto p = n->NewProc(); p != nullptr) {
        (void)p->WriteFile("/net/ctl", "trace sample 0");
      }
    }
  }
  EXPECT_TRUE(recovered.ok()) << recovered.error().message();

  (*import)->Stop();
}

TEST_F(ChaosNetTest, InvariantCheckerFlagsAnUnrecoveredService) {
  InvariantChecker invariants;
  invariants.WatchNode(helix_.get());
  // Quiescence holds, but nobody ever announced this port: the probe must
  // fail, not pass vacuously.
  invariants.ExpectService(helix_.get(), "tcp!musca!echo");
  Status s = invariants.Check(seconds(2));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(std::string(s.error().message()).find("unreachable"), std::string::npos)
      << s.error().message();
}

}  // namespace
}  // namespace plan9
