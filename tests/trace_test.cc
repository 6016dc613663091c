// Causal tracing (DESIGN.md §12): context propagation across 9P hops,
// head sampling, the wire trailer, span stitching, and the recorder's
// dropped-event accounting.  Every test owns its contexts (a bare
// obs::Context or its nodes'), so none needs to restore shared state.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ninep/fcall.h"
#include "src/obs/context.h"
#include "src/obs/stitch.h"
#include "src/svc/exportfs.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

// ---------------------------------------------------------------------------
// Wire trailer
// ---------------------------------------------------------------------------

TEST(TraceTest, SampledContextSurvivesPackUnpack) {
  Fcall tx = TwalkMsg(7, "net");
  tx.tag = 3;
  tx.trace.trace_hi = 0x1122334455667788ull;
  tx.trace.trace_lo = 0x99aabbccddeeff00ull;
  tx.trace.span_id = 0x0123456789abcdefull;
  tx.trace.sampled = true;
  auto packed = tx.Pack();
  ASSERT_TRUE(packed.ok());
  auto rx = Fcall::Unpack(*packed);
  ASSERT_TRUE(rx.ok());
  EXPECT_EQ(rx->type, FcallType::kTwalk);
  EXPECT_EQ(rx->name, "net");
  EXPECT_TRUE(rx->trace.sampled);
  EXPECT_EQ(rx->trace.trace_hi, tx.trace.trace_hi);
  EXPECT_EQ(rx->trace.trace_lo, tx.trace.trace_lo);
  EXPECT_EQ(rx->trace.span_id, tx.trace.span_id);
}

TEST(TraceTest, UnsampledMessageCarriesNoTrailer) {
  Fcall plain = TwalkMsg(7, "net");
  plain.tag = 3;
  auto packed_plain = plain.Pack();
  ASSERT_TRUE(packed_plain.ok());

  Fcall traced = TwalkMsg(7, "net");
  traced.tag = 3;
  traced.trace.sampled = true;
  traced.trace.trace_hi = 1;
  auto packed_traced = traced.Pack();
  ASSERT_TRUE(packed_traced.ok());

  EXPECT_EQ(packed_traced->size(), packed_plain->size() + kTraceTrailerLen);
  auto rx = Fcall::Unpack(*packed_plain);
  ASSERT_TRUE(rx.ok());
  EXPECT_FALSE(rx->trace.sampled);
  EXPECT_EQ(rx->trace.trace_hi, 0u);
}

// ---------------------------------------------------------------------------
// Head sampler
// ---------------------------------------------------------------------------

TEST(TraceTest, SampleIntervalIsHonored) {
  obs::Context ctx("testhost", 0);
  ASSERT_TRUE(ctx.Ctl("trace sample 4").ok());
  int sampled = 0;
  for (int i = 0; i < 8; i++) {
    obs::ScopedSpan span("dial.call", ctx, obs::ScopedSpan::kRootAtEntry);
    if (span.active()) {
      sampled++;
    }
  }
  // A counter (not a coin flip): any 8 consecutive decisions at 1/4 contain
  // exactly 2 hits, wherever the counter started.
  EXPECT_EQ(sampled, 2);
}

TEST(TraceTest, UnsampledPathEmitsNothing) {
  obs::Context ctx("testhost", 0);
  ctx.recorder().Enable(static_cast<uint32_t>(obs::TraceKind::kSpan));
  ctx.tracer().SetSampleInterval(0);
  for (int i = 0; i < 16; i++) {
    obs::ScopedSpan span("dial.call", ctx, obs::ScopedSpan::kRootAtEntry);
    EXPECT_FALSE(span.active());
    obs::ScopedSpan child("dial.cs", ctx);
    EXPECT_FALSE(child.active());
  }
  EXPECT_EQ(ctx.recorder().RenderText(static_cast<uint32_t>(obs::TraceKind::kSpan)),
            "");
}

TEST(TraceTest, ChildSpansInheritTheRootContext) {
  obs::Context ctx("a", 0);
  ASSERT_TRUE(ctx.Ctl("trace sample 1").ok());
  {
    obs::ScopedSpan root("dial.call", ctx, obs::ScopedSpan::kRootAtEntry);
    ASSERT_TRUE(root.active());
    obs::ScopedSpan child("dial.cs", ctx);
    ASSERT_TRUE(child.active());
    EXPECT_EQ(child.context().trace_hi, root.context().trace_hi);
    EXPECT_EQ(child.context().trace_lo, root.context().trace_lo);
    EXPECT_NE(child.context().span_id, root.context().span_id);
  }
  // Context restored: a kChildOnly span outside is inactive again.
  ctx.tracer().SetSampleInterval(0);
  obs::ScopedSpan after("dial.cs", ctx);
  EXPECT_FALSE(after.active());

  auto spans = obs::ParseSpans(
      ctx.recorder().RenderText(static_cast<uint32_t>(obs::TraceKind::kSpan)));
  auto trees = obs::StitchSpans(spans);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].spans.size(), 2u);
  EXPECT_EQ(trees[0].roots.size(), 1u);
  EXPECT_TRUE(trees[0].orphans.empty());
  EXPECT_TRUE(trees[0].unfinished.empty());
  EXPECT_EQ(obs::SpanTreeDepth(trees[0]), 2);
}

// ---------------------------------------------------------------------------
// Stitching
// ---------------------------------------------------------------------------

TEST(TraceTest, StitchFlagsOrphansAndUnfinishedAndDedupes) {
  const char* text =
      "  0.000001 span  helix B dial.call trace=000000000000000000000000000000aa span=0000000000000001 parent=0000000000000000\n"
      "  0.000002 span  helix B dial.cs trace=000000000000000000000000000000aa span=0000000000000002 parent=0000000000000001\n"
      "  0.000003 span  helix E dial.cs trace=000000000000000000000000000000aa span=0000000000000002 parent=0000000000000001 us=10\n"
      "  0.000004 span  musca E il.rtt trace=000000000000000000000000000000aa span=0000000000000009 parent=00000000000000ff us=5\n"
      // The same record read through a second mount: must collapse.
      "  0.000002 span  helix B dial.cs trace=000000000000000000000000000000aa span=0000000000000002 parent=0000000000000001\n"
      // Unrelated kinds interleave freely.
      "  0.000005 il    helix/il/0 send 1 2\n";
  auto spans = obs::ParseSpans(text);
  EXPECT_EQ(spans.size(), 3u);
  auto trees = obs::StitchSpans(spans);
  ASSERT_EQ(trees.size(), 1u);
  const auto& t = trees[0];
  EXPECT_EQ(t.roots.size(), 1u);
  ASSERT_EQ(t.orphans.size(), 1u);
  EXPECT_EQ(t.orphans[0], 9u);
  ASSERT_EQ(t.unfinished.size(), 1u);
  EXPECT_EQ(t.unfinished[0], 1u);
  std::string rendered = obs::RenderSpanTree(t);
  EXPECT_NE(rendered.find("UNFINISHED"), std::string::npos);
  EXPECT_NE(rendered.find("ORPHAN"), std::string::npos);
  EXPECT_NE(obs::PerHopSummary(trees).find("musca"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dropped-event accounting (the recorder satellite)
// ---------------------------------------------------------------------------

TEST(TraceTest, OverwritingUnreadEventsBumpsDroppedCounter) {
  obs::Counter dropped;
  uint64_t before = dropped.value();
  obs::FlightRecorder fr(4, &dropped);
  fr.Enable(static_cast<uint32_t>(obs::TraceKind::kDial));
  for (int i = 0; i < 10; i++) {
    fr.Record(obs::TraceKind::kDial, "t", StrFormat("ev%d", i));
  }
  EXPECT_EQ(dropped.value(), before + 6);
  // Rendering marks everything read: the next wrap-around of *read* events
  // drops nothing.
  (void)fr.RenderText();
  for (int i = 0; i < 4; i++) {
    fr.Record(obs::TraceKind::kDial, "t", StrFormat("late%d", i));
  }
  EXPECT_EQ(dropped.value(), before + 6);
  fr.Record(obs::TraceKind::kDial, "t", "one more");
  EXPECT_EQ(dropped.value(), before + 7);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a 3-node import chain stitches into one tree
// ---------------------------------------------------------------------------

constexpr char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\n"
    "sys=musca\n\tip=135.104.9.6\n\til=exportfs port=17008\n"
    "sys=tern\n\tip=135.104.9.42\n\til=9fs port=17007\n";

TEST(TraceTest, ImportChainStitchesIntoOneTreeAcrossThreeHops) {
  EtherSegment ether(LinkParams::Ether10());
  auto db = std::make_shared<Ndb>();
  ASSERT_TRUE(db->Load(kNdb).ok());
  Node helix("helix"), musca("musca"), tern("tern");
  auto mac = [](uint8_t last) { return MacAddr{8, 0, 0x69, 2, 0x22, last}; };
  helix.AddEther(&ether, mac(1), Ipv4Addr::FromOctets(135, 104, 9, 31),
                 Ipv4Addr{0xffffff00});
  musca.AddEther(&ether, mac(2), Ipv4Addr::FromOctets(135, 104, 9, 6),
                 Ipv4Addr{0xffffff00});
  tern.AddEther(&ether, mac(3), Ipv4Addr::FromOctets(135, 104, 9, 42),
                Ipv4Addr{0xffffff00});
  ASSERT_TRUE(BootNetwork(&helix, db, kNdb).ok());
  ASSERT_TRUE(BootNetwork(&musca, db, kNdb).ok());
  ASSERT_TRUE(BootNetwork(&tern, db, kNdb).ok());

  // tern exports its root; musca imports it into the base namespace (so
  // musca's exportfs serves it onward) and re-exports; helix imports musca.
  // Managed imports so destruction dismantles each 9P session and the
  // exporters can join their handlers: destructors run in reverse
  // declaration order, unwinding the chain from helix back to tern.
  ImportOptions iopts;
  iopts.flags = kMRepl;
  auto ternfs = StartExportfs(
      std::shared_ptr<Proc>(tern.NewProc().release()), "il!*!9fs");
  ASSERT_TRUE(ternfs.ok());
  auto muscaproc = musca.NewProc();
  auto tern_import =
      ImportManaged(muscaproc.get(), "il!tern!9fs", "/", "/n/tern", iopts);
  ASSERT_TRUE(tern_import.ok());
  auto gwfs = StartExportfs(
      std::shared_ptr<Proc>(musca.NewProc().release()), "il!*!exportfs");
  ASSERT_TRUE(gwfs.ok());
  auto helixproc = helix.NewProcPrivate();
  auto gw_import =
      ImportManaged(helixproc.get(), "il!musca!exportfs", "/", "/n/gw", iopts);
  ASSERT_TRUE(gw_import.ok());

  // Sample everything helix starts through its file interface, then cross
  // both hops: musca and tern record the spans that reach them.
  ASSERT_TRUE(helixproc->WriteFile("/net/ctl", "trace sample 1").ok());
  auto remote = helixproc->ReadFile("/n/gw/n/tern/net/stats");
  ASSERT_TRUE(remote.ok()) << remote.error().message();
  EXPECT_NE(remote->find("ninep.srv.rpcs"), std::string::npos);
  ASSERT_TRUE(helixproc->WriteFile("/net/ctl", "trace sample 0").ok());

  // Harvest the way trace9 does: local + both imported /net/trace views.
  std::string text;
  for (const char* path :
       {"/net/trace", "/n/gw/net/trace", "/n/gw/n/tern/net/trace"}) {
    auto t = helixproc->ReadFile(path);
    if (t.ok()) {
      text += *t;
    }
  }
  auto spans = obs::ParseSpans(text);
  ASSERT_FALSE(spans.empty());
  auto trees = obs::StitchSpans(spans);
  ASSERT_FALSE(trees.empty());

  // At least one trace crossed all three machines with ≥3 chained hops, and
  // nobody lost their parent along the way.
  int best_depth = 0;
  bool three_hosts = false;
  for (const auto& tree : trees) {
    EXPECT_TRUE(tree.orphans.empty())
        << "orphan spans in trace " << tree.trace << ":\n"
        << obs::RenderSpanTree(tree);
    best_depth = std::max(best_depth, obs::SpanTreeDepth(tree));
    std::set<std::string> hosts;
    for (const auto& s : tree.spans) {
      hosts.insert(s.host);
    }
    if (hosts.count("helix") && hosts.count("musca") && hosts.count("tern")) {
      three_hosts = true;
    }
  }
  EXPECT_GE(best_depth, 3) << "no trace chained through the gateway";
  EXPECT_TRUE(three_hosts) << "no trace visited helix, musca, and tern";
}

// The conversation a traced dial created carries the trace id in its status
// line (how chaos ties a stuck conv back to its causal history).
TEST(TraceTest, TracedDialAnnotatesTheConversationStatus) {
  EtherSegment ether(LinkParams::Ether10());
  auto db = std::make_shared<Ndb>();
  ASSERT_TRUE(db->Load(kNdb).ok());
  Node helix("helix"), musca("musca");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  musca.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                 Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
  ASSERT_TRUE(BootNetwork(&helix, db, kNdb).ok());
  ASSERT_TRUE(BootNetwork(&musca, db, kNdb).ok());
  auto svc = StartExportfs(
      std::shared_ptr<Proc>(musca.NewProc().release()), "il!*!exportfs");
  ASSERT_TRUE(svc.ok());

  auto proc = helix.NewProc();
  ASSERT_TRUE(proc->WriteFile("/net/ctl", "trace sample 1").ok());
  std::string dir;
  auto fd = Dial(proc.get(), "il!musca!exportfs", &dir);
  ASSERT_TRUE(proc->WriteFile("/net/ctl", "trace sample 0").ok());
  ASSERT_TRUE(fd.ok());
  auto status = proc->ReadFile(dir + "/status");
  ASSERT_TRUE(status.ok());
  auto pos = status->find(" trace ");
  ASSERT_NE(pos, std::string::npos) << *status;
  // The id in the status line names a trace helix's recorder actually holds.
  std::string id = status->substr(pos + 7, 32);
  auto trace = proc->ReadFile("/net/trace");
  ASSERT_TRUE(trace.ok());
  auto spans = obs::ParseSpans(*trace);
  bool found = false;
  for (const auto& s : spans) {
    found = found || s.trace == id;
  }
  EXPECT_TRUE(found) << "status trace id " << id << " not in recorder";
  (void)proc->Close(*fd);
}

}  // namespace
}  // namespace plan9
