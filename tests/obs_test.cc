// Observability layer: metrics registry, flight recorder, the /net surface
// (stats, trace, ctl) — locally and through a 9P import — and the per-node
// contexts behind it: each machine's /net describes that machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/obs/context.h"
#include "src/sim/ether_segment.h"
#include "src/svc/exportfs.h"
#include "src/svc/listen.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

using obs::FlightRecorder;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceKind;

// ---------------------------------------------------------------------------
// Counters and parents
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, NamedEntriesAreStable) {
  auto& r = MetricsRegistry::Default();
  auto& c1 = r.CounterNamed("obs.test.stable");
  auto& c2 = r.CounterNamed("obs.test.stable");
  EXPECT_EQ(&c1, &c2) << "same name must resolve to the same counter";
  auto& h1 = r.HistogramNamed("obs.test.stable-hist");
  auto& h2 = r.HistogramNamed("obs.test.stable-hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  auto& parent = MetricsRegistry::Default().CounterNamed("obs.test.concurrent");
  parent.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  // Each thread owns a child bound to the shared parent — the two-level
  // pattern every conversation uses.
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<obs::Counter>> children;
  for (int t = 0; t < kThreads; t++) {
    children.push_back(std::make_unique<obs::Counter>(&parent));
  }
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        children[static_cast<size_t>(t)]->Inc();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(parent.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  for (auto& c : children) {
    EXPECT_EQ(c->value(), static_cast<uint64_t>(kPerThread));
  }
  // Reset clears only the child; the aggregate keeps counting events.
  children[0]->Reset();
  EXPECT_EQ(children[0]->value(), 0u);
  EXPECT_EQ(parent.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, GaugeTracksHighWater) {
  auto& g = MetricsRegistry::Default().GaugeNamed("obs.test.gauge");
  g.Reset();
  g.Add(10);
  g.Add(25);
  g.Add(-30);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.high_water(), 35);
  g.Set(100);
  EXPECT_EQ(g.high_water(), 100);
}

// ---------------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket b = bit width: 0 -> 0, 1 -> 1, 2..3 -> 2, [2^(b-1), 2^b) -> b.
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketFor(~0ull), 64 - 1 + 1);  // top bucket clamps
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024u);
  // Every value lands in the bucket whose range contains it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 5ull, 100ull, 4095ull, 1ull << 40}) {
    int b = Histogram::BucketFor(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(b)) << v;
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_LT(v, Histogram::BucketLowerBound(b + 1)) << v;
    }
  }
}

TEST(Histogram, RecordAndPercentiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 1000u * 1001 / 2);
  EXPECT_EQ(h.mean(), h.sum() / h.count());
  // Log buckets: percentile resolves to a bucket upper bound, so p50 of
  // 1..1000 lands in the bucket containing 500 (256..511 -> upper 511).
  uint64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 1023u);
  uint64_t p99 = h.Percentile(99);
  EXPECT_GE(p99, 990u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, SnapshotIsConsistentUnderWriters) {
  auto& r = MetricsRegistry::Default();
  auto& c = r.CounterNamed("obs.test.snapshot");
  c.Reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      c.Inc();
    }
  });
  for (int i = 0; i < 50; i++) {
    std::string text = r.RenderText();
    EXPECT_NE(text.find("obs.test.snapshot"), std::string::npos);
    std::string json = r.RenderJson();
    EXPECT_NE(json.find("\"obs.test.snapshot\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
  }
  stop.store(true);
  writer.join();
  // The rendered value parses back as a number no larger than the final one.
  std::string text = r.RenderText();
  auto pos = text.find("obs.test.snapshot ");
  ASSERT_NE(pos, std::string::npos);
  auto end = text.find('\n', pos);
  auto value = ParseU64(text.substr(pos + strlen("obs.test.snapshot "),
                                    end - pos - strlen("obs.test.snapshot ")));
  ASSERT_TRUE(value.has_value());
  EXPECT_LE(*value, c.value());
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, MaskGatesRecording) {
  FlightRecorder fr(16);
  EXPECT_FALSE(fr.enabled(TraceKind::kIl));
  fr.Record(TraceKind::kIl, "test", "ignored while off");
  EXPECT_EQ(fr.EventCount(), 0u);
  fr.Enable(static_cast<uint32_t>(TraceKind::kIl));
  EXPECT_TRUE(fr.enabled(TraceKind::kIl));
  EXPECT_FALSE(fr.enabled(TraceKind::kNinep));
  fr.Record(TraceKind::kIl, "test", "send", 7, 42);
  EXPECT_EQ(fr.EventCount(), 1u);
  std::string text = fr.RenderText();
  EXPECT_NE(text.find(" il "), std::string::npos);
  EXPECT_NE(text.find("test send 7 42"), std::string::npos);
  // Filtered render excludes other kinds.
  EXPECT_EQ(fr.RenderText(static_cast<uint32_t>(TraceKind::kNinep)), "");
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  FlightRecorder fr(8);
  fr.Enable(static_cast<uint32_t>(TraceKind::kAll));
  for (int i = 0; i < 20; i++) {
    fr.Record(TraceKind::kDial, "test", StrFormat("ev%d", i));
  }
  EXPECT_EQ(fr.EventCount(), 8u);
  EXPECT_EQ(fr.Overwritten(), 12u);
  std::string text = fr.RenderText();
  EXPECT_EQ(text.find("ev11 "), std::string::npos) << "ev11 was overwritten";
  // Oldest surviving event renders first.
  EXPECT_LT(text.find("ev12"), text.find("ev19"));
  fr.Clear();
  EXPECT_EQ(fr.EventCount(), 0u);
}

TEST(FlightRecorderTest, CtlGrammar) {
  obs::Context ctx("t", 0);
  FlightRecorder& fr = ctx.recorder();
  ASSERT_TRUE(ctx.Ctl("trace on il 9p").ok());
  EXPECT_TRUE(fr.enabled(TraceKind::kIl));
  EXPECT_TRUE(fr.enabled(TraceKind::kNinep));
  EXPECT_FALSE(fr.enabled(TraceKind::kDial));
  ASSERT_TRUE(ctx.Ctl("trace off il").ok());
  EXPECT_FALSE(fr.enabled(TraceKind::kIl));
  EXPECT_TRUE(fr.enabled(TraceKind::kNinep));
  ASSERT_TRUE(ctx.Ctl("trace on").ok());
  EXPECT_TRUE(fr.enabled(TraceKind::kFault));
  ASSERT_TRUE(ctx.Ctl("trace off").ok());
  EXPECT_EQ(fr.mask(), 0u);
  EXPECT_FALSE(ctx.Ctl("trace sideways").ok());
  EXPECT_FALSE(ctx.Ctl("trace on nosuchkind").ok());
  // The kinds no ring is filled with are not in the grammar.
  EXPECT_FALSE(ctx.Ctl("trace on log").ok());
  EXPECT_FALSE(ctx.Ctl("trace on block").ok());
  fr.Enable(static_cast<uint32_t>(TraceKind::kAll));
  fr.Record(TraceKind::kIl, "t", "x");
  ASSERT_TRUE(ctx.Ctl("clear").ok());
  EXPECT_EQ(fr.EventCount(), 0u);
}

// A stats struct declares each counter once; Reset clears every member and
// leaves the registry's aggregate counting.
TEST(MetricSetTest, ResetClearsEveryMemberButNotTheRegistry) {
  MetricsRegistry registry;
  struct Stats : obs::MetricSet {
    using MetricSet::MetricSet;
    obs::Counter sent{this, "obs.test.sent"};
    obs::Counter rcvd{this, "obs.test.rcvd"};
    obs::Histogram rtt{this, "obs.test.rtt"};
  } stats(registry);
  stats.sent.Inc(3);
  stats.rcvd.Inc();
  stats.rtt.Record(40);
  stats.Reset();
  EXPECT_EQ(stats.sent.value(), 0u);
  EXPECT_EQ(stats.rcvd.value(), 0u);
  EXPECT_EQ(stats.rtt.count(), 0u);
  EXPECT_EQ(registry.CounterNamed("obs.test.sent").value(), 3u);
  EXPECT_EQ(registry.CounterNamed("obs.test.rcvd").value(), 1u);
  EXPECT_EQ(registry.HistogramNamed("obs.test.rtt").count(), 1u);
}

// ---------------------------------------------------------------------------
// The /net surface: stats, trace, log, ctl — local and imported
// ---------------------------------------------------------------------------

constexpr char kNdb[] = R"(sys=helix
	dom=helix.research.bell-labs.com
	ip=135.104.9.31 ether=080069022201
	proto=il
sys=musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6 ether=080069022202
il=echo port=56789
il=exportfs port=17007
)";

// Every `key value` line of a stats file whose value is a count.
std::map<std::string, uint64_t> ParseStats(const std::string& text) {
  std::map<std::string, uint64_t> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    auto f = Tokenize(line);
    if (f.size() == 2) {
      if (auto v = ParseU64(f[1]); v.has_value()) {
        out[f[0]] = *v;
      }
    }
  }
  return out;
}

// The value of `key` in a stats file; 0 when absent.
uint64_t StatValue(const std::string& text, const std::string& key) {
  auto stats = ParseStats(text);
  auto it = stats.find(key);
  return it == stats.end() ? 0 : it->second;
}

class ObsNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());
    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    auto mac = [](uint8_t last) { return MacAddr{8, 0, 0x69, 2, 0x22, last}; };
    helix_->AddEther(&ether_, mac(1), Ipv4Addr::FromOctets(135, 104, 9, 31),
                     Ipv4Addr{0xffffff00});
    musca_->AddEther(&ether_, mac(2), Ipv4Addr::FromOctets(135, 104, 9, 6),
                     Ipv4Addr{0xffffff00});
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
  }

  // Run one echo round trip over IL so the counters move.
  void EchoOnce() {
    auto svc = StartEchoService(
        std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!echo");
    ASSERT_TRUE(svc.ok());
    auto client = helix_->NewProc();
    auto fd = Dial(client.get(), "il!135.104.9.6!56789");
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
    auto reply = client->ReadString(*fd, 16);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, "ping");
    ASSERT_TRUE(client->Close(*fd).ok());
  }

  EtherSegment ether_{LinkParams::Ether10()};
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_;
};

TEST_F(ObsNetTest, NetRootListsObservabilityFiles) {
  auto proc = helix_->NewProc();
  auto entries = proc->ReadDir("/net");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (auto& d : *entries) {
    names.insert(d.name);
  }
  for (const char* want : {"stats", "trace", "ctl"}) {
    EXPECT_TRUE(names.count(want)) << "missing /net/" << want;
  }
}

TEST_F(ObsNetTest, NetStatsRendersRegistryInKeyValueFormat) {
  EchoOnce();
  auto proc = helix_->NewProc();
  auto stats = proc->ReadFile("/net/stats");
  ASSERT_TRUE(stats.ok());
  // The paper's stats format: one `key value` pair per line, for the
  // families helix owns.
  for (const char* key : {"net.il.msgs-sent", "net.ip.packets-sent",
                          "net.dial.attempts", "net.il.rtt-count",
                          "ninep.srv.rpcs"}) {
    auto pos = stats->find(std::string(key) + " ");
    EXPECT_NE(pos, std::string::npos) << "missing " << key << " in\n" << *stats;
  }
  // The shared wire and the process's streams belong to no one machine.
  std::istringstream lines(*stats);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_FALSE(HasPrefix(line, "sim.") || HasPrefix(line, "stream."))
        << "helix's /net/stats carries " << line;
  }
  // The echo moved real traffic, so the IL aggregates are nonzero.
  auto pos = stats->find("net.il.msgs-sent ");
  ASSERT_NE(pos, std::string::npos);
  auto end = stats->find('\n', pos);
  auto value = ParseU64(stats->substr(pos + strlen("net.il.msgs-sent "),
                                      end - pos - strlen("net.il.msgs-sent ")));
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(*value, 0u);
}

TEST_F(ObsNetTest, TraceCtlEnablesFlightRecorder) {
  auto proc = helix_->NewProc();
  // Writing the ctl file turns tracing on; the dial and IL activity lands
  // in /net/trace.
  ASSERT_TRUE(proc->WriteFile("/net/ctl", "trace on il dial 9p").ok());
  EchoOnce();
  auto trace = proc->ReadFile("/net/trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->find(" il "), std::string::npos) << *trace;
  EXPECT_NE(trace->find(" dial "), std::string::npos) << *trace;
  ASSERT_TRUE(proc->WriteFile("/net/ctl", "trace off").ok());
  ASSERT_TRUE(proc->WriteFile("/net/ctl", "clear").ok());
  auto cleared = proc->ReadFile("/net/trace");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(*cleared, "");
}

TEST_F(ObsNetTest, PerConversationStatusHasPaperShape) {
  auto svc = StartEchoService(
      std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!echo");
  ASSERT_TRUE(svc.ok());
  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "il!135.104.9.6!56789", &dir, nullptr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
  auto reply = client->ReadString(*fd, 16);
  ASSERT_TRUE(reply.ok());

  // status: `il/N refs State local!port remote!port tx N rx N rtt N us ...`
  auto status = client->ReadFile(dir + "/status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("il/"), std::string::npos) << *status;
  EXPECT_NE(status->find("Established"), std::string::npos) << *status;
  EXPECT_NE(status->find("135.104.9.31!"), std::string::npos) << *status;
  EXPECT_NE(status->find("135.104.9.6!56789"), std::string::npos) << *status;
  EXPECT_NE(status->find(" tx "), std::string::npos) << *status;
  EXPECT_NE(status->find(" rx "), std::string::npos) << *status;
  EXPECT_NE(status->find(" rtt "), std::string::npos) << *status;
  ASSERT_TRUE(client->Close(*fd).ok());
}

TEST_F(ObsNetTest, NetStatsReadableThroughNinepImport) {
  // The §6.1 gateway property applies to the observability files too:
  // import helix's /net and read its registry snapshot remotely.
  auto exportsvc = StartExportfs(
      std::shared_ptr<Proc>(helix_->NewProc().release()), "il!*!exportfs");
  ASSERT_TRUE(exportsvc.ok());
  EchoOnce();

  auto proc = musca_->NewProcPrivate();
  ASSERT_TRUE(Import(proc.get(), "il!135.104.9.31!17007", "/net", "/n/helixnet",
                     kMRepl)
                  .ok());
  auto stats = proc->ReadFile("/n/helixnet/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("net.il.msgs-sent "), std::string::npos);
  // helix served this very import's RPCs.
  EXPECT_GT(StatValue(*stats, "ninep.srv.rpcs"), 0u) << *stats;
  // The client side of those RPCs is musca's, in musca's own /net/stats.
  auto own = proc->ReadFile("/net/stats");
  ASSERT_TRUE(own.ok());
  EXPECT_GT(StatValue(*own, "ninep.rpc.count"), 0u) << *own;
  EXPECT_GT(StatValue(*own, "ninep.rpc.latency-count"), 0u) << *own;
}

// ---------------------------------------------------------------------------
// Per-node views: each machine's /net describes that machine
// ---------------------------------------------------------------------------

constexpr char kThreeNodeNdb[] = R"(sys=helix
	ip=135.104.9.31
sys=musca
	ip=135.104.9.6
sys=tern
	ip=135.104.9.42
il=echo port=56789
il=exportfs port=17007
)";

// Three machines on one Ethernet; musca serves echo.
class PerNodeObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kThreeNodeNdb).ok());
    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    tern_ = std::make_unique<Node>("tern");
    uint8_t octet[] = {31, 6, 42};
    uint8_t last = 0;
    for (Node* n : {helix_.get(), musca_.get(), tern_.get()}) {
      n->AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, static_cast<uint8_t>(last + 1)},
                  Ipv4Addr::FromOctets(135, 104, 9, octet[last]), Ipv4Addr{0xffffff00});
      last++;
      ASSERT_TRUE(BootNetwork(n, db_, kThreeNodeNdb).ok());
    }
    auto echo = StartEchoService(
        std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!echo");
    ASSERT_TRUE(echo.ok());
    echo_ = std::move(*echo);
  }

  // helix dials musca's echo service and makes one round trip.
  void EchoHelixThroughMusca() {
    auto client = helix_->NewProc();
    auto fd = Dial(client.get(), "il!musca!echo");
    ASSERT_TRUE(fd.ok()) << fd.error().message();
    ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
    auto reply = client->ReadString(*fd, 16);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, "ping");
    ASSERT_TRUE(client->Close(*fd).ok());
  }

  static std::string ReadNet(Node* n, const std::string& file) {
    auto text = n->NewProc()->ReadFile("/net/" + file);
    EXPECT_TRUE(text.ok()) << n->sysname() << " /net/" << file;
    return text.ok() ? *text : "";
  }

  static std::map<std::string, uint64_t> Stats(Node* n) {
    return ParseStats(ReadNet(n, "stats"));
  }

  EtherSegment ether_{LinkParams::Ether10()};
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_, tern_;
  std::unique_ptr<Service> echo_;
};

TEST_F(PerNodeObsTest, BystanderStatsShowNoTraffic) {
  EchoHelixThroughMusca();
  for (const auto& [key, value] : Stats(tern_.get())) {
    if (HasPrefix(key, "net.il.") || HasPrefix(key, "net.dial.")) {
      EXPECT_EQ(value, 0u) << "tern's /net/stats counts " << key;
    }
  }
  // Not vacuous: the traffic shows on the machines that carried it.
  auto helix = Stats(helix_.get());
  EXPECT_GT(helix["net.il.msgs-sent"], 0u);
  EXPECT_GT(helix["net.dial.attempts"], 0u);
  EXPECT_GT(Stats(musca_.get())["net.il.msgs-rcvd"], 0u);
}

// An ether0 conversation opened with the given ctl messages; its files stay
// open with the proc.
struct EtherTap {
  EtherTap(Proc* proc, std::initializer_list<const char*> ctl) : proc(proc) {
    int cfd = proc->Open("/net/ether0/clone", kORdWr).value_or(-1);
    auto num = proc->ReadString(cfd, 16);
    EXPECT_TRUE(num.ok());
    dir = "/net/ether0/" + num.value_or("") + "/";
    for (const char* msg : ctl) {
      EXPECT_TRUE(proc->WriteString(cfd, msg).ok()) << msg;
    }
    data = proc->Open(dir + "data", kORead).value_or(-1);
    EXPECT_GE(data, 0);
  }

  // The frames queued so far, read without blocking: the status file says
  // how many arrived.
  std::vector<EtherFrame> Frames() {
    auto status = proc->ReadFile(dir + "status");
    EXPECT_TRUE(status.ok());
    auto fields = Tokenize(status.value_or(""));
    auto in = std::find(fields.begin(), fields.end(), "in");
    uint64_t n = in != fields.end() && in + 1 != fields.end()
                     ? ParseU64(*(in + 1)).value_or(0)
                     : 0;
    std::vector<EtherFrame> frames;
    for (uint64_t i = 0; i < n; i++) {
      Bytes raw(2048);
      auto got = proc->Read(data, raw.data(), raw.size());
      EXPECT_TRUE(got.ok());
      raw.resize(got.value_or(0));
      auto frame = EtherFrame::Unpack(raw);
      EXPECT_TRUE(frame.ok());
      if (frame.ok()) {
        frames.push_back(std::move(*frame));
      }
    }
    return frames;
  }

  Proc* proc;
  std::string dir;
  int data = -1;
};

constexpr MacAddr kHelixMac{8, 0, 0x69, 2, 0x22, 1};
constexpr MacAddr kMuscaMac{8, 0, 0x69, 2, 0x22, 2};

// A snooping gateway: tern forwards and its ether0 listens promiscuously,
// yet helix and musca's traffic goes to the snooper only.  IP hears the
// frames addressed to its own station; were it handed the foreign ones, it
// would forward musca's traffic to musca a second time.
TEST_F(PerNodeObsTest, SnoopingGatewayKeepsForeignFramesOutOfIp) {
  tern_->EnableForwarding();
  auto snoop = tern_->NewProc();
  EtherTap tap(snoop.get(), {"promiscuous", "connect -1"});
  EchoHelixThroughMusca();
  bool saw_ip = false;
  for (const EtherFrame& f : tap.Frames()) {
    saw_ip |= f.type == kEtherTypeIp && ((f.src == kHelixMac && f.dst == kMuscaMac) ||
                                         (f.src == kMuscaMac && f.dst == kHelixMac));
  }
  EXPECT_TRUE(saw_ip) << "the snooper read no helix<->musca IP frame";
  auto tern = Stats(tern_.get());
  EXPECT_EQ(tern["net.ip.packets-rcvd"], 0u);
  EXPECT_EQ(tern["net.ip.forwarded"], 0u);
}

// IP and a `connect 2048` conversation share one station's frames: the
// conversation reads helix's IP packets to musca, and musca's IP still
// answers them.
TEST_F(PerNodeObsTest, Connect2048ConversationSharesIpFrames) {
  auto proc = musca_->NewProc();
  EtherTap tap(proc.get(), {"connect 2048"});
  EchoHelixThroughMusca();
  auto frames = tap.Frames();
  ASSERT_FALSE(frames.empty());
  for (const EtherFrame& f : frames) {
    EXPECT_EQ(f.type, kEtherTypeIp);
    EXPECT_EQ(f.src, kHelixMac);
    EXPECT_EQ(f.dst, kMuscaMac);
  }
  EXPECT_GT(Stats(musca_.get())["net.ip.packets-rcvd"], 0u);
}

TEST_F(PerNodeObsTest, RestartStartsWithEmptyStatsAndTrace) {
  ASSERT_TRUE(musca_->NewProc()->WriteFile("/net/ctl", "trace on il").ok());
  EchoHelixThroughMusca();
  echo_.reset();
  auto& root_rcvd = MetricsRegistry::Default().CounterNamed("net.il.msgs-rcvd");
  uint64_t root_before = root_rcvd.value();
  ASSERT_GT(Stats(musca_.get())["net.il.msgs-rcvd"], 0u);
  ASSERT_NE(ReadNet(musca_.get(), "trace"), "");

  musca_->Crash();
  ASSERT_TRUE(musca_->Restart().ok());
  for (const auto& [key, value] : Stats(musca_.get())) {
    EXPECT_EQ(value, 0u) << "musca's " << key << " survived the restart";
  }
  EXPECT_EQ(ReadNet(musca_.get(), "trace"), "");
  EXPECT_EQ(ReadNet(musca_.get(), "ctl"), "trace mask 0\ntrace sample 0\n");
  // The process totals keep what the crashed kernel counted.
  EXPECT_EQ(root_rcvd.value(), root_before);
}

TEST_F(PerNodeObsTest, TraceSampleIsPerNode) {
  ASSERT_TRUE(helix_->NewProc()->WriteFile("/net/ctl", "trace sample 1").ok());
  EXPECT_NE(ReadNet(helix_.get(), "ctl").find("trace sample 1\n"), std::string::npos);
  std::string tern_ctl = ReadNet(tern_.get(), "ctl");
  EXPECT_NE(tern_ctl.find("trace sample 0\n"), std::string::npos) << tern_ctl;
}

TEST_F(PerNodeObsTest, RootTotalsAreTheSumOfTheNodes) {
  std::vector<Node*> nodes = {helix_.get(), musca_.get(), tern_.get()};
  auto snapshot = [&nodes] {
    std::vector<std::map<std::string, uint64_t>> out;
    for (Node* n : nodes) {
      out.push_back(Stats(n));
    }
    return out;
  };
  auto root_before = ParseStats(MetricsRegistry::Default().RenderText());
  auto nodes_before = snapshot();

  // One run: an echo over IL and a 9P import, so net.* and ninep.* move.
  EchoHelixThroughMusca();
  {
    auto exportsvc = StartExportfs(
        std::shared_ptr<Proc>(musca_->NewProc().release()), "il!*!exportfs");
    ASSERT_TRUE(exportsvc.ok());
    auto importer = helix_->NewProcPrivate();
    ASSERT_TRUE(
        Import(importer.get(), "il!musca!exportfs", "/net", "/n/muscanet", kMRepl).ok());
    ASSERT_TRUE(importer->ReadFile("/n/muscanet/stats").ok());
  }

  // Read the nodes on both sides of the root, until nothing moved between.
  std::map<std::string, uint64_t> root_after;
  std::vector<std::map<std::string, uint64_t>> nodes_after;
  for (int tries = 0; tries < 50; tries++) {
    nodes_after = snapshot();
    root_after = ParseStats(MetricsRegistry::Default().RenderText());
    if (snapshot() == nodes_after) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto at = [](const std::map<std::string, uint64_t>& m, const std::string& key) {
    auto it = m.find(key);
    return it == m.end() ? uint64_t{0} : it->second;
  };
  std::set<std::string> keys;
  for (const auto& stats : nodes_after) {
    for (const auto& [key, value] : stats) {
      // Means, maxima and percentiles do not add up across machines.
      bool additive = !key.ends_with("-mean") && !key.ends_with("-max") &&
                      !key.ends_with("-p50") && !key.ends_with("-p99");
      if (additive) {
        keys.insert(key);
      }
    }
  }
  ASSERT_TRUE(keys.count("net.il.msgs-sent") && keys.count("ninep.rpc.count"));
  for (const auto& key : keys) {
    uint64_t sum = 0;
    for (size_t i = 0; i < nodes.size(); i++) {
      sum += at(nodes_after[i], key) - at(nodes_before[i], key);
    }
    EXPECT_EQ(at(root_after, key) - at(root_before, key), sum) << key;
  }
  EXPECT_GT(at(root_after, "ninep.rpc.count") - at(root_before, "ninep.rpc.count"), 0u);
}

TEST(PerNodeIds, SpanIdsAreDistinctAcrossNodesAndRestarts) {
  Node helix("helix"), musca("musca");
  std::set<uint64_t> ids;
  auto draw = [&ids](Node& n) {
    for (int i = 0; i < 1000; i++) {
      ids.insert(n.obs()->tracer().NextId());
    }
  };
  draw(helix);
  draw(musca);
  musca.Crash();
  ASSERT_TRUE(musca.Restart().ok());
  draw(musca);
  EXPECT_EQ(ids.size(), 3000u);
}

}  // namespace
}  // namespace plan9
