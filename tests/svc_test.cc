// User-level services (§6): exportfs/import, the gateway property, and the
// listener-based trivial services.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/obs/metrics.h"
#include "src/svc/exportfs.h"
#include "src/svc/listen.h"
#include "src/svc/service.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"
#include "src/task/timers.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

constexpr char kNdb[] = R"(sys=helix
	dom=helix.research.bell-labs.com
	ip=135.104.9.31 dk=nj/astro/helix
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6 dk=nj/astro/musca
sys=gnot
	dk=nj/astro/gnot
il=echo port=56789
il=exportfs port=17007
tcp=echo port=7
)";

class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());

    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    gnot_ = std::make_unique<Node>("gnot");  // a terminal with ONLY Datakit
    auto mac = [](uint8_t last) { return MacAddr{8, 0, 0x69, 2, 0x22, last}; };
    helix_->AddEther(&ether_, mac(1), Ipv4Addr::FromOctets(135, 104, 9, 31),
                     Ipv4Addr{0xffffff00});
    musca_->AddEther(&ether_, mac(2), Ipv4Addr::FromOctets(135, 104, 9, 6),
                     Ipv4Addr{0xffffff00});
    helix_->AddDatakit(&dk_, "nj/astro/helix");
    musca_->AddDatakit(&dk_, "nj/astro/musca");
    gnot_->AddDatakit(&dk_, "nj/astro/gnot");
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(gnot_.get(), db_, kNdb).ok());
  }

  EtherSegment ether_{LinkParams::Ether10()};
  DatakitSwitch dk_;
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_, gnot_;
};

TEST_F(SvcTest, EchoServiceViaDial) {
  auto svc = StartEchoService(
      std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!echo");
  ASSERT_TRUE(svc.ok());

  auto client = helix_->NewProc();
  auto fd = Dial(client.get(), "net!musca!echo");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client->WriteString(*fd, "are you there?").ok());
  auto reply = client->ReadString(*fd, 64);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "are you there?");
  ASSERT_TRUE(client->Close(*fd).ok());
}

TEST_F(SvcTest, ExportfsImportRemoteTree) {
  // musca exports /lib; helix mounts it at /n/musca and reads through it.
  ASSERT_TRUE(musca_->rootfs()->WriteFile("lib/motd", "maxims of musca").ok());
  auto svc = StartExportfs(std::shared_ptr<Proc>(musca_->NewProc().release()),
                           "il!*!exportfs");
  ASSERT_TRUE(svc.ok());

  auto proc = helix_->NewProcPrivate();
  ASSERT_TRUE(
      Import(proc.get(), "il!135.104.9.6!17007", "/lib", "/n/musca", kMRepl).ok());

  auto motd = proc->ReadFile("/n/musca/motd");
  ASSERT_TRUE(motd.ok());
  EXPECT_EQ(*motd, "maxims of musca");

  // Writes go back: "Operations in the imported file tree are executed on
  // the remote server."
  ASSERT_TRUE(proc->WriteFile("/n/musca/from-helix", "hello musca").ok());
  auto check = musca_->rootfs()->ReadFileText("lib/from-helix");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(*check, "hello musca");

  // Directory listing across the mount.
  auto entries = proc->ReadDir("/n/musca");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (auto& d : *entries) {
    names.insert(d.name);
  }
  EXPECT_TRUE(names.count("motd"));
  EXPECT_TRUE(names.count("from-helix"));
  EXPECT_TRUE(names.count("ndb"));
}

TEST_F(SvcTest, GatewayImportNetParagraph61) {
  // The §6.1 example: a terminal with only a Datakit connection imports
  // /net from helix; all of helix's networks become available.
  auto exportsvc = StartExportfs(
      std::shared_ptr<Proc>(helix_->NewProc().release()), "dk!*!exportfs");
  ASSERT_TRUE(exportsvc.ok());

  auto proc = gnot_->NewProcPrivate("philw");

  // "philw-gnot% ls /net" — before: local networks only.
  {
    auto entries = proc->ReadDir("/net");
    ASSERT_TRUE(entries.ok());
    std::set<std::string> names;
    for (auto& d : *entries) {
      names.insert(d.name);
    }
    EXPECT_TRUE(names.count("cs"));
    EXPECT_TRUE(names.count("dk"));
    EXPECT_FALSE(names.count("tcp"));
    EXPECT_FALSE(names.count("ether0"));
  }

  // "import -a helix /net"
  ASSERT_TRUE(
      Import(proc.get(), "dk!nj/astro/helix!exportfs", "/net", "/net", kMAfter).ok());

  // After: the union contains helix's networks too.
  {
    auto entries = proc->ReadDir("/net");
    ASSERT_TRUE(entries.ok());
    std::set<std::string> names;
    for (auto& d : *entries) {
      names.insert(d.name);
    }
    for (const char* want : {"cs", "dk", "tcp", "udp", "il", "ether0", "dns"}) {
      EXPECT_TRUE(names.count(want)) << "missing /net/" << want;
    }
  }

  // And they work: dial TCP *through helix's stack* to musca's echo server.
  auto echosvc = StartEchoService(
      std::shared_ptr<Proc>(musca_->NewProc().release()), "tcp!*!7");
  ASSERT_TRUE(echosvc.ok());

  auto cfd = proc->Open("/net/tcp/clone", kORdWr);
  ASSERT_TRUE(cfd.ok()) << "remote tcp device must be visible";
  auto num = proc->ReadString(*cfd, 16);
  ASSERT_TRUE(num.ok());
  ASSERT_TRUE(proc->WriteString(*cfd, "connect 135.104.9.6!7").ok());
  auto dfd = proc->Open("/net/tcp/" + *num + "/data", kORdWr);
  ASSERT_TRUE(dfd.ok());
  ASSERT_TRUE(proc->WriteString(*dfd, "via the gateway").ok());
  auto reply = proc->ReadString(*dfd, 64);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "via the gateway");
  ASSERT_TRUE(proc->Close(*dfd).ok());
  ASSERT_TRUE(proc->Close(*cfd).ok());

  // "Local entries supersede remote ones of the same name": gnot's own cs
  // still answers (it knows gnot's dk address, helix's wouldn't).
  auto fd = proc->Open("/net/cs", kORdWr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(proc->WriteString(*fd, "dk!nj/astro/musca!x").ok());
  ASSERT_TRUE(proc->Seek(*fd, 0, kSeekSet).ok());
  auto line = proc->ReadString(*fd);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "/net/dk/clone nj/astro/musca!x");
  (void)proc->Close(*fd);
}

TEST_F(SvcTest, ImportIsPerProcessNamespace) {
  // A private namespace sees the import; the node's base namespace doesn't.
  ASSERT_TRUE(musca_->rootfs()->WriteFile("lib/motd", "musca speaks").ok());
  auto svc = StartExportfs(std::shared_ptr<Proc>(musca_->NewProc().release()),
                           "il!*!exportfs");
  ASSERT_TRUE(svc.ok());

  auto priv = helix_->NewProcPrivate();
  ASSERT_TRUE(
      Import(priv.get(), "il!135.104.9.6!17007", "/lib", "/n/musca", kMRepl).ok());
  EXPECT_TRUE(priv->ReadFile("/n/musca/motd").ok());

  auto other = helix_->NewProc();
  EXPECT_FALSE(other->ReadFile("/n/musca/motd").ok());
}

// Each entry a directory listing returns is what Stat of its path says.
void ExpectListingMatchesStat(Proc* proc, const std::string& dir) {
  SCOPED_TRACE(dir);
  auto entries = proc->ReadDir(dir);
  ASSERT_TRUE(entries.ok());
  ASSERT_FALSE(entries->empty());
  for (const auto& listed : *entries) {
    std::string path = dir + "/" + listed.name;
    auto st = proc->Stat(path);
    ASSERT_TRUE(st.ok()) << path;
    EXPECT_EQ(st->name, listed.name) << path;
    EXPECT_EQ(st->qid.path, listed.qid.path) << path;
    EXPECT_EQ(st->qid.vers, listed.qid.vers) << path;
    EXPECT_EQ(st->mode, listed.mode) << path;
    EXPECT_EQ(st->type, listed.type) << path;
    EXPECT_EQ(st->uid, listed.uid) << path;
    EXPECT_EQ(st->gid, listed.gid) << path;
  }
}

TEST_F(SvcTest, ListingsAgreeWithStat) {
  // Devices, the CS and DNS query files, a conversation directory, and a
  // plain tree imported from musca.
  ASSERT_TRUE(musca_->rootfs()->WriteFile("lib/motd", "maxims of musca").ok());
  auto svc = StartExportfs(std::shared_ptr<Proc>(musca_->NewProc().release()),
                           "il!*!exportfs");
  ASSERT_TRUE(svc.ok());
  auto proc = helix_->NewProcPrivate();
  ASSERT_TRUE(
      Import(proc.get(), "il!135.104.9.6!17007", "/lib", "/n/musca", kMRepl).ok());
  auto cfd = proc->Open("/net/il/clone", kORdWr);
  ASSERT_TRUE(cfd.ok());
  auto conv = proc->ReadString(*cfd, 16);
  ASSERT_TRUE(conv.ok());
  for (const std::string& dir :
       {std::string("/net"), std::string("/net/il"), "/net/il/" + *conv,
        std::string("/net/ether0"), std::string("/n/musca")}) {
    ExpectListingMatchesStat(proc.get(), dir);
  }
  ASSERT_TRUE(proc->Close(*cfd).ok());
}

TEST(DnsUpstreamTest, AnswerLearnedFromUpstreamIsCached) {
  // musca's DNS answers for a domain helix's database lacks; helix asks it
  // once, then answers from its cache.
  auto db = std::make_shared<Ndb>();
  ASSERT_TRUE(db->Load(kNdb).ok());
  Ndb musca_zone;
  ASSERT_TRUE(musca_zone.Load("dom=plan9.bell-labs.com ip=135.104.9.99\n").ok());
  EtherSegment ether(LinkParams::Ether10());
  Node helix("helix");
  Node musca("musca");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  musca.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                 Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
  ASSERT_TRUE(BootNetwork(&musca, db, kNdb).ok());
  BootOptions opts;
  opts.dns_upstream = "udp!135.104.9.6!53";
  ASSERT_TRUE(BootNetwork(&helix, db, kNdb, opts).ok());
  auto dns = StartDnsServer(std::shared_ptr<Proc>(musca.NewProc().release()), &musca_zone);
  ASSERT_TRUE(dns.ok());

  auto& registry = obs::MetricsRegistry::Default();
  uint64_t asked = registry.CounterNamed("net.dns.upstream-queries").value();
  uint64_t hits = registry.CounterNamed("net.dns.cache-hits").value();
  auto proc = helix.NewProc();
  for (int i = 0; i < 2; i++) {
    auto fd = proc->Open("/net/dns", kORdWr);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(proc->WriteString(*fd, "plan9.bell-labs.com ip").ok());
    ASSERT_TRUE(proc->Seek(*fd, 0, kSeekSet).ok());
    auto line = proc->ReadString(*fd);
    ASSERT_TRUE(line.ok()) << i;
    EXPECT_EQ(*line, "plan9.bell-labs.com ip 135.104.9.99") << i;
    ASSERT_TRUE(proc->Close(*fd).ok());
  }
  EXPECT_EQ(registry.CounterNamed("net.dns.upstream-queries").value() - asked, 1u);
  EXPECT_EQ(registry.CounterNamed("net.dns.cache-hits").value() - hits, 1u);
}

TEST_F(SvcTest, DiscardServiceSwallowsData) {
  auto svc = StartDiscardService(
      std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!9009");
  ASSERT_TRUE(svc.ok());
  auto client = helix_->NewProc();
  auto fd = Dial(client.get(), "il!135.104.9.6!9009");
  ASSERT_TRUE(fd.ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(client->WriteString(*fd, "into the void").ok());
  }
  ASSERT_TRUE(client->Close(*fd).ok());
}

// Lines in /proc/self/maps: every unjoined thread keeps its stack (and its
// guard page) mapped, two lines a thread.
long MapLines() {
  std::ifstream maps("/proc/self/maps");
  return std::count(std::istreambuf_iterator<char>(maps), std::istreambuf_iterator<char>(),
                    '\n');
}

TEST(ServiceTest, SpawnReapsFinishedKprocs) {
  Service svc("reaper");
  QLock lock;
  Rendez ran;
  int finished = 0;
  // Spawns one short kproc and waits for its fn to return, as a listener's
  // per-call kproc returns when its caller hangs up.
  auto spawn_one = [&] {
    int want;
    {
      QLockGuard guard(lock);
      want = finished + 1;
    }
    svc.Spawn([&] {
      {
        QLockGuard guard(lock);
        finished++;
      }
      ran.Wakeup();
    });
    QLockGuard guard(lock);
    ran.Sleep(lock, [&]() REQUIRES(lock) { return finished >= want; });
  };
  for (int i = 0; i < 16; i++) {
    spawn_one();  // settle the C library's cache of thread stacks
  }
  long before = MapLines();
  for (int i = 0; i < 1000; i++) {
    spawn_one();
  }
  // Kept finished kprocs would add about 2000 lines.
  EXPECT_LT(MapLines() - before, 64);
  svc.Stop();
}

// Where 9P frames are delivered.  helix imports musca's /lib over IL, and a
// promiscuous station on the segment notes the thread delivering each frame.
class NinepDeliveryTest : public ::testing::Test {
 protected:
  void Boot(LinkParams params) {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());
    ether_ = std::make_unique<EtherSegment>(params);
    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    helix_->AddEther(ether_.get(), MacAddr{8, 0, 0x69, 2, 0x22, 1},
                     Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
    musca_->AddEther(ether_.get(), MacAddr{8, 0, 0x69, 2, 0x22, 2},
                     Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
    ASSERT_TRUE(musca_->rootfs()->WriteFile("lib/motd", "maxims of musca").ok());
    auto svc = StartExportfs(std::shared_ptr<Proc>(musca_->NewProc().release()),
                             "il!*!exportfs");
    ASSERT_TRUE(svc.ok());
    exportfs_ = std::move(*svc);
    station_ = ether_->Attach(MacAddr{8, 0, 0x69, 2, 0x22, 9}, [this](const EtherFrame&) {
      QLockGuard guard(lock_);
      delivered_on_.push_back(std::this_thread::get_id());
    });
    ether_->SetPromiscuous(station_, true);
    proc_ = helix_->NewProcPrivate();
    ASSERT_TRUE(
        Import(proc_.get(), "il!135.104.9.6!17007", "/lib", "/n/musca", kMRepl).ok());
    auto fd = proc_->Open("/n/musca/motd", kORead);
    ASSERT_TRUE(fd.ok());
    fd_ = *fd;
  }

  // One Tread: reads the file from the start.
  void ReadOnce() {
    char buf[64];
    ASSERT_TRUE(proc_->Seek(fd_, 0, kSeekSet).ok());
    auto n = proc_->Read(fd_, buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf, *n), "maxims of musca");
  }

  // The timer kproc's thread.  With no delivery scope open anywhere, as
  // before Boot, the kproc runs every callback.
  std::thread::id TimerKproc() {
    TimerWheel::Default().Schedule(TimerWheel::Clock::duration::zero(), [this] {
      QLockGuard guard(lock_);
      kproc_ = std::this_thread::get_id();
      probed_.Wakeup();
    });
    QLockGuard guard(lock_);
    probed_.Sleep(lock_, [&]() REQUIRES(lock_) { return kproc_ != std::thread::id(); });
    return kproc_;
  }

  // The thread that delivered each frame since the last call.
  std::vector<std::thread::id> TakeDelivered() {
    QLockGuard guard(lock_);
    return std::exchange(delivered_on_, {});
  }

  void TearDown() override {
    if (ether_ != nullptr) {
      ether_->Detach(station_);
      TimerWheel::Default().Drain();  // no delivery is still inside the station
    }
  }

  QLock lock_;
  Rendez probed_;
  std::thread::id kproc_ GUARDED_BY(lock_);
  std::vector<std::thread::id> delivered_on_ GUARDED_BY(lock_);
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<EtherSegment> ether_;
  std::unique_ptr<Node> helix_, musca_;
  std::unique_ptr<Service> exportfs_;
  std::unique_ptr<Proc> proc_;
  EtherSegment::StationId station_ = 0;
  int fd_ = -1;
};

TEST_F(NinepDeliveryTest, FewZeroDelayFramesCrossTheTimerKproc) {
  std::thread::id kproc = TimerKproc();
  ASSERT_NE(kproc, std::this_thread::get_id());
  LinkParams perfect = LinkParams::Perfect();
  perfect.mtu = 1514;
  Boot(perfect);
  (void)TakeDelivered();
  for (int i = 0; i < 20; i++) {
    ReadOnce();
  }
  std::vector<std::thread::id> delivered = TakeDelivered();
  size_t on_kproc = std::count(delivered.begin(), delivered.end(), kproc);
  // The threads waiting for each answer, the caller and the exportfs worker,
  // deliver the Treads, the Rreads and the acknowledgements they draw
  // between them instead of waking the timer kproc to; with no delivery
  // scopes the kproc delivers nearly all of them.  A thread preempted
  // between scheduling a frame and closing its scope leaves that frame to
  // the kproc's next tick, so a loaded host sees a few there.
  ASSERT_GE(delivered.size(), 40u);  // a Tread and an Rread per RPC at least
  EXPECT_LT(2 * on_kproc, delivered.size());
}

TEST_F(NinepDeliveryTest, DelayedFramesAreNeverRunEarly) {
  Boot(LinkParams::Ether10());
  auto fastest = TimerWheel::Clock::duration::max();
  for (int i = 0; i < 20; i++) {
    auto start = TimerWheel::Clock::now();
    ReadOnce();
    fastest = std::min(fastest, TimerWheel::Clock::now() - start);
  }
  // Each RPC crosses the 200 us latency twice, request and reply.
  EXPECT_GE(fastest, 2 * LinkParams::Ether10().latency);
}

}  // namespace
}  // namespace plan9
