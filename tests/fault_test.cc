// Fault injection and end-to-end recovery.
//
// The robustness claims under test: same seed => same fault decisions
// (deterministic replay), Dial retries and falls through dead addresses,
// 9P RPC deadlines fire and Tflush suppresses late replies, IL's deadman
// kills connections on dead links, and a 9P mount over IL survives a
// hostile link (burst loss + reordering + duplication + corruption + a
// two-second partition) with zero hangs and zero corrupted payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/base/strings.h"
#include "src/dev/ether.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/ninep/client.h"
#include "src/ninep/transport.h"
#include "src/sim/ether_segment.h"
#include "src/sim/faults.h"
#include "src/sim/wire.h"
#include "src/svc/exportfs.h"
#include "src/task/kproc.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

using std::chrono::milliseconds;
using std::chrono::microseconds;
using std::chrono::seconds;

// ---------------------------------------------------------------------------
// FaultInjector unit tests
// ---------------------------------------------------------------------------

bool SameDecision(const FaultInjector::Decision& a, const FaultInjector::Decision& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate && a.corrupt == b.corrupt &&
         a.corrupt_bit == b.corrupt_bit && a.extra_delay == b.extra_delay;
}

TEST(FaultInjector, SameSeedSameDecisionSequence) {
  auto epoch = TimerWheel::Clock::now();
  FaultProfile profile = FaultProfile::Hostile();
  FaultInjector a(profile, 42, epoch);
  FaultInjector b(profile, 42, epoch);
  FaultInjector other(profile, 43, epoch);
  int divergences = 0;
  for (int i = 0; i < 5000; i++) {
    size_t size = 64 + static_cast<size_t>(i % 700);
    auto da = a.Evaluate(epoch, size);
    auto db = b.Evaluate(epoch, size);
    ASSERT_TRUE(SameDecision(da, db)) << "diverged at frame " << i;
    if (!SameDecision(da, other.Evaluate(epoch, size))) {
      divergences++;
    }
  }
  EXPECT_EQ(a.stats().drops_burst.value(), b.stats().drops_burst.value());
  EXPECT_EQ(a.stats().dups.value(), b.stats().dups.value());
  EXPECT_EQ(a.stats().reorders.value(), b.stats().reorders.value());
  EXPECT_EQ(a.stats().corruptions.value(), b.stats().corruptions.value());
  EXPECT_EQ(a.stats().bad_state_entries.value(), b.stats().bad_state_entries.value());
  // A hostile profile actually exercises every fault mode...
  EXPECT_GT(a.stats().drops_burst.value(), 0u);
  EXPECT_GT(a.stats().dups.value(), 0u);
  EXPECT_GT(a.stats().reorders.value(), 0u);
  EXPECT_GT(a.stats().corruptions.value(), 0u);
  EXPECT_GT(a.stats().bad_state_entries.value(), 0u);
  // ...and a different seed gives a genuinely different trace.
  EXPECT_GT(divergences, 0);
}

TEST(FaultInjector, PartitionScriptAndFlap) {
  auto epoch = TimerWheel::Clock::now();
  FaultProfile p;
  p.partitions.push_back(PartitionWindow{milliseconds(10), milliseconds(20)});
  FaultInjector inj(p, 1, epoch);
  EXPECT_FALSE(inj.down(epoch + milliseconds(5)));
  EXPECT_TRUE(inj.down(epoch + milliseconds(10)));
  EXPECT_TRUE(inj.down(epoch + milliseconds(29)));
  EXPECT_FALSE(inj.down(epoch + milliseconds(30)));

  FaultProfile f;
  f.flap_period = milliseconds(100);
  f.flap_down = milliseconds(30);
  FaultInjector flappy(f, 1, epoch);
  EXPECT_TRUE(flappy.down(epoch + milliseconds(10)));   // phase 10 < 30
  EXPECT_FALSE(flappy.down(epoch + milliseconds(50)));  // phase 50
  EXPECT_TRUE(flappy.down(epoch + milliseconds(110)));  // phase 10 again
  EXPECT_FALSE(flappy.down(epoch + milliseconds(199))); // phase 99
}

TEST(FaultInjector, ForcedPartitionDropsEverything) {
  auto epoch = TimerWheel::Clock::now();
  FaultInjector inj(FaultProfile{}, 7, epoch);
  inj.SetDown(true);
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(inj.Evaluate(epoch, 100).drop);
  }
  EXPECT_EQ(inj.stats().drops_partition.value(), 10u);
  inj.SetDown(false);
  EXPECT_FALSE(inj.Evaluate(epoch, 100).drop);
  EXPECT_EQ(inj.stats().drops_partition.value(), 10u);
}

TEST(FaultInjector, ApplyCorruptionFlipsExactlyOneBit) {
  Bytes frame(32);
  for (size_t i = 0; i < frame.size(); i++) {
    frame[i] = static_cast<uint8_t>(i * 3);
  }
  Bytes original = frame;
  FaultInjector::ApplyCorruption(&frame, 77);
  int bits_different = 0;
  for (size_t i = 0; i < frame.size(); i++) {
    uint8_t diff = frame[i] ^ original[i];
    while (diff != 0) {
      bits_different += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_different, 1);
  FaultInjector::ApplyCorruption(&frame, 77);  // flipping again restores
  EXPECT_EQ(frame, original);
}

TEST(FaultInjector, FormatFaultStatsStableSchema) {
  FaultStats s;
  s.drops_burst.Inc(3);
  std::string text = FormatFaultStats(s);
  EXPECT_NE(text.find("fault-drops-burst: 3\n"), std::string::npos);
  EXPECT_NE(text.find("fault-drops-partition: 0\n"), std::string::npos);
  EXPECT_NE(text.find("fault-dups: 0\n"), std::string::npos);
  std::string rx = FormatFaultStats(s, "rx-fault-");
  EXPECT_NE(rx.find("rx-fault-drops-burst: 3\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire / EtherSegment replay tests
// ---------------------------------------------------------------------------

// Order-insensitive digest of a delivery trace: the timer wheel may permute
// concurrent deliveries between runs, but the *set* of delivered payloads
// (post-corruption) and every counter must replay exactly.
struct DeliveryTrace {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> digest{0};

  void Add(const Bytes& frame) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : frame) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
    count++;
    digest += h;  // commutative fold
  }

  // Wait until deliveries stop arriving.
  uint64_t Settle() const {
    uint64_t last = count.load();
    for (int i = 0; i < 100; i++) {
      std::this_thread::sleep_for(milliseconds(20));
      uint64_t now = count.load();
      if (now == last && i >= 2) {
        break;
      }
      last = now;
    }
    return count.load();
  }
};

TEST(WireFaults, SameSeedSameDeliveryTrace) {
  auto run = [](uint64_t seed) {
    LinkParams params = LinkParams::Cyclone();
    params.seed = seed;
    params.faults = FaultProfile::Hostile();
    Wire wire(params);
    DeliveryTrace trace;
    wire.Attach(Wire::kB, [&](Bytes frame) { trace.Add(frame); });
    for (int i = 0; i < 400; i++) {
      Bytes frame(64 + static_cast<size_t>(i % 200));
      for (size_t j = 0; j < frame.size(); j++) {
        frame[j] = static_cast<uint8_t>(i * 31 + j);
      }
      EXPECT_TRUE(wire.Send(Wire::kA, std::move(frame)).ok());
    }
    uint64_t delivered = trace.Settle();
    const auto& fs = wire.fault_stats(Wire::kA);
    auto snap = std::tuple(delivered, trace.digest.load(), fs.drops_burst.value(),
                           fs.dups.value(), fs.reorders.value(),
                           fs.corruptions.value());
    wire.Detach(Wire::kB);
    return snap;
  };
  auto first = run(99);
  auto second = run(99);
  auto different = run(100);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::get<1>(first), std::get<1>(different));
  // Sanity: faults really happened and drops really suppressed delivery.
  EXPECT_GT(std::get<2>(first), 0u);
  EXPECT_EQ(std::get<0>(first), 400 - std::get<2>(first) + std::get<3>(first));
}

TEST(WireFaults, DuplicationDeliversTwice) {
  LinkParams params = LinkParams::Cyclone();
  params.faults.dup_rate = 1.0;
  Wire wire(params);
  DeliveryTrace trace;
  wire.Attach(Wire::kB, [&](Bytes frame) { trace.Add(frame); });
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(wire.Send(Wire::kA, Bytes(100, static_cast<uint8_t>(i))).ok());
  }
  EXPECT_EQ(trace.Settle(), 100u);
  EXPECT_EQ(wire.fault_stats(Wire::kA).dups.value(), 50u);
  wire.Detach(Wire::kB);
}

TEST(WireFaults, PartitionSilencesTheLink) {
  Wire wire(LinkParams::Cyclone());
  DeliveryTrace trace;
  wire.Attach(Wire::kB, [&](Bytes frame) { trace.Add(frame); });
  wire.SetPartitioned(true);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(wire.Send(Wire::kA, Bytes(64, 0xab)).ok());
  }
  EXPECT_EQ(trace.Settle(), 0u);
  EXPECT_EQ(wire.fault_stats(Wire::kA).drops_partition.value(), 20u);
  wire.SetPartitioned(false);
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(wire.Send(Wire::kA, Bytes(64, 0xcd)).ok());
  }
  EXPECT_EQ(trace.Settle(), 20u);
  wire.Detach(Wire::kB);
}

TEST(EtherFaults, DuplicationAndPartitionCounters) {
  LinkParams params = LinkParams::Ether10();
  params.faults.dup_rate = 1.0;
  EtherSegment seg(params);
  MacAddr a{8, 0, 0x69, 0, 0, 1}, b{8, 0, 0x69, 0, 0, 2};
  DeliveryTrace trace;
  seg.Attach(a, nullptr);
  seg.Attach(b, [&](const EtherFrame& f) { trace.Add(f.payload); });
  EtherFrame frame;
  frame.src = a;
  frame.dst = b;
  frame.type = 0x0800;
  frame.payload = Bytes(100, 0x5a);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(seg.Send(frame).ok());
  }
  EXPECT_EQ(trace.Settle(), 20u);
  EXPECT_EQ(seg.fault_stats().dups.value(), 10u);
  seg.SetPartitioned(true);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(seg.Send(frame).ok());
  }
  EXPECT_EQ(trace.Settle(), 20u);
  EXPECT_EQ(seg.fault_stats().drops_partition.value(), 5u);
}

// An unplugged device is a dead NIC: whoever transmits through it, a data
// write or the kernel's IP, is refused and nothing reaches the cable.
TEST(EtherFaults, UnpluggedDeviceRefusesTransmit) {
  EtherSegment seg(LinkParams::Ether10());
  EtherProto ether(&seg, MacAddr{8, 0, 0x69, 0, 0, 1});
  MacAddr peer{8, 0, 0x69, 0, 0, 2};
  ASSERT_TRUE(ether.Transmit(peer, 0x0800, Bytes(64, 0x5a)).ok());
  uint64_t sent = seg.stats().frames_sent.value();
  ASSERT_EQ(sent, 1u);
  ether.Unplug();
  EXPECT_FALSE(ether.Transmit(peer, 0x0800, Bytes(64, 0x5a)).ok());
  EXPECT_EQ(seg.stats().frames_sent.value(), sent);
}

// ---------------------------------------------------------------------------
// 9P client timeout / Tflush paths, against a scripted in-process server
// ---------------------------------------------------------------------------

// A hand-rolled 9P "server" on the other end of a pipe, driven entirely by
// what it reads: no wall-clock sleeps, so the three flush outcomes are
// decided by message order, not scheduling luck.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::unique_ptr<MsgTransport> t) : t_(std::move(t)) {}
  ~ScriptedServer() {
    t_->Close();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void Run(std::function<void(MsgTransport*, const Fcall&)> on_msg) {
    thread_ = std::thread([this, on_msg = std::move(on_msg)] {
      for (;;) {
        auto raw = t_->ReadMsg();
        if (!raw.ok() || raw->empty()) {
          return;
        }
        auto msg = Fcall::Unpack(*raw);
        if (msg.ok()) {
          on_msg(t_.get(), *msg);
        }
      }
    });
  }

  static void Reply(MsgTransport* t, FcallType type, uint16_t tag, Bytes data = {}) {
    Fcall r;
    r.type = type;
    r.tag = tag;
    r.data = std::move(data);
    auto packed = r.Pack();
    ASSERT_TRUE(packed.ok());
    (void)t->WriteMsg(*packed);
  }

 private:
  std::unique_ptr<MsgTransport> t_;
  std::thread thread_;
};

TEST(NinepTimeout, FlushConfirmedSurfacesTimeoutAndConnectionSurvives) {
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  // Script: swallow the first Tnop; confirm its Tflush; answer everything
  // else normally.
  server.Run([swallowed = false](MsgTransport* t, const Fcall& m) mutable {
    if (m.type == FcallType::kTnop && !swallowed) {
      swallowed = true;
      return;  // never answered: the client must flush it
    }
    if (m.type == FcallType::kTflush) {
      ScriptedServer::Reply(t, FcallType::kRflush, m.tag);
      return;
    }
    ScriptedServer::Reply(t, static_cast<FcallType>(static_cast<uint8_t>(m.type) + 1),
                          m.tag);
  });

  NinepClient client(std::move(pipe.first));
  client.SetRpcTimeout(milliseconds(150));
  auto r = client.Rpc(TnopMsg());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message(), std::string(kErrTimedOut));

  // The flush reaped the tag; the connection keeps working.
  EXPECT_TRUE(client.Rpc(TnopMsg()).ok());
  EXPECT_TRUE(client.ok());
  const auto& s = client.stats();
  EXPECT_EQ(s.timeouts.value(), 1u);
  EXPECT_EQ(s.flushes_sent.value(), 1u);
  EXPECT_EQ(s.flushed.value(), 1u);
  EXPECT_EQ(s.late_replies.value(), 0u);
  EXPECT_EQ(s.failures.value(), 0u);
}

TEST(NinepTimeout, RreadLongerThanItsTreadIsABadReply) {
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  // Script: answer every Tread with 64 bytes, whatever its count.
  server.Run([](MsgTransport* t, const Fcall& m) {
    ScriptedServer::Reply(t, static_cast<FcallType>(static_cast<uint8_t>(m.type) + 1),
                          m.tag, m.type == FcallType::kTread ? Bytes(64, 'x') : Bytes{});
  });

  NinepClient client(std::move(pipe.first));
  auto r = client.Read(/*fid=*/1, /*offset=*/0, /*count=*/4);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("too long"), std::string::npos) << r.error().message();
  // Only that reply is refused; the connection keeps working.
  auto whole = client.Read(1, 0, 64);
  ASSERT_TRUE(whole.ok()) << whole.error().message();
  EXPECT_EQ(whole->size(), 64u);
  EXPECT_TRUE(client.ok());
}

TEST(NinepTimeout, LateReplyBeatsFlushAndIsDelivered) {
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  // Script: hold the Tnop until its Tflush arrives (proof the client timed
  // out), then answer the *original* tag first and the flush second — the
  // late reply outruns the Rflush.
  server.Run([held_tag = uint16_t{0}, holding = false](MsgTransport* t,
                                                       const Fcall& m) mutable {
    if (m.type == FcallType::kTnop && !holding) {
      holding = true;
      held_tag = m.tag;
      return;
    }
    if (m.type == FcallType::kTflush) {
      ScriptedServer::Reply(t, FcallType::kRnop, held_tag);
      ScriptedServer::Reply(t, FcallType::kRflush, m.tag);
      return;
    }
    ScriptedServer::Reply(t, static_cast<FcallType>(static_cast<uint8_t>(m.type) + 1),
                          m.tag);
  });

  NinepClient client(std::move(pipe.first));
  client.SetRpcTimeout(milliseconds(150));
  auto r = client.Rpc(TnopMsg());
  ASSERT_TRUE(r.ok()) << r.error().message();
  EXPECT_EQ(r->type, FcallType::kRnop);
  EXPECT_TRUE(client.ok());
  // The orphan Rflush must be consumed, not misdelivered: the next RPC
  // reuses tags safely.
  EXPECT_TRUE(client.Rpc(TnopMsg()).ok());
  const auto& s = client.stats();
  EXPECT_EQ(s.timeouts.value(), 1u);
  EXPECT_EQ(s.flushes_sent.value(), 1u);
  EXPECT_EQ(s.late_replies.value(), 1u);
  EXPECT_EQ(s.flushed.value(), 0u);
  EXPECT_EQ(s.failures.value(), 0u);
}

TEST(NinepTimeout, UnansweredFlushDeclaresConnectionDead) {
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  server.Run([](MsgTransport*, const Fcall&) {
    // A black hole: neither RPCs nor flushes are ever answered.
  });

  NinepClient client(std::move(pipe.first));
  client.SetRpcTimeout(milliseconds(100));
  std::atomic<bool> hook_fired{false};
  std::string hook_why;
  client.OnDead([&](const std::string& why) {
    hook_why = why;
    hook_fired = true;
  });

  auto r = client.Rpc(TnopMsg());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(hook_fired.load());
  EXPECT_FALSE(hook_why.empty());
  EXPECT_FALSE(client.ok());
  // Subsequent RPCs fail fast without touching the wire.
  auto r2 = client.Rpc(TnopMsg());
  EXPECT_FALSE(r2.ok());
  const auto& s = client.stats();
  EXPECT_EQ(s.timeouts.value(), 1u);
  EXPECT_EQ(s.flushes_sent.value(), 1u);
  EXPECT_EQ(s.failures.value(), 1u);
}

// ---------------------------------------------------------------------------
// The mount driver with no reader kproc: callers read their own replies
// ---------------------------------------------------------------------------

TEST(MountDriver, StartsNoKproc) {
  auto pipe = PipeTransport::Make();
  int live = Kproc::LiveCount();
  NinepClient client(std::move(pipe.first));
  EXPECT_EQ(Kproc::LiveCount(), live);
}

// Four callers share one client; the server holds their Treads until it has
// all four, then answers them in the given order.  Each Rread names its fid.
void ExpectEachCallerGetsItsOwnReply(bool reverse) {
  constexpr size_t kCallers = 4;
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  server.Run([held = std::vector<Fcall>(), reverse](MsgTransport* t,
                                                    const Fcall& m) mutable {
    held.push_back(m);
    if (held.size() < kCallers) {
      return;
    }
    if (reverse) {
      std::reverse(held.begin(), held.end());
    }
    for (const Fcall& req : held) {
      ScriptedServer::Reply(t, FcallType::kRread, req.tag,
                            ToBytes(StrFormat("fid %u", req.fid)));
    }
    held.clear();
  });

  NinepClient client(std::move(pipe.first));
  // Bounds every wait: a lost role hand-off strands a caller until its
  // deadline, so it shows as a timeout instead of a hang.
  client.SetRpcTimeout(milliseconds(2000));
  std::vector<std::string> got(kCallers);
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCallers; i++) {
    callers.emplace_back([&, i] {
      auto r = client.Read(static_cast<uint32_t>(i + 1), 0, 64);
      got[i] = r.ok() ? ToString(*r) : "error: " + r.error().message();
    });
  }
  for (auto& c : callers) {
    c.join();
  }
  for (size_t i = 0; i < kCallers; i++) {
    EXPECT_EQ(got[i], StrFormat("fid %zu", i + 1));
  }
  EXPECT_EQ(client.stats().timeouts.value(), 0u);
  EXPECT_TRUE(client.ok());
}

TEST(MountDriver, RepliesInReverseOrderReachTheirCallers) {
  ExpectEachCallerGetsItsOwnReply(/*reverse=*/true);
}

TEST(MountDriver, RepliesInArrivalOrderReachTheirCallers) {
  ExpectEachCallerGetsItsOwnReply(/*reverse=*/false);
}

TEST(MountDriver, ReaderTimesOutWhileAnotherCallerWaits) {
  auto pipe = PipeTransport::Make();
  ScriptedServer server(std::move(pipe.second));
  std::promise<void> nop_arrived;
  // Script: swallow the Tnop; hold the Tread until the Tnop's Tflush comes,
  // then answer the Tread and confirm the flush.
  server.Run([&nop_arrived, held = Fcall()](MsgTransport* t, const Fcall& m) mutable {
    if (m.type == FcallType::kTnop) {
      nop_arrived.set_value();
      return;
    }
    if (m.type == FcallType::kTread) {
      held = m;
      return;
    }
    if (m.type == FcallType::kTflush) {
      ScriptedServer::Reply(t, FcallType::kRread, held.tag, ToBytes("held read"));
      ScriptedServer::Reply(t, FcallType::kRflush, m.tag);
    }
  });

  NinepClient client(std::move(pipe.first));
  constexpr auto kTimeout = milliseconds(400);
  client.SetRpcTimeout(kTimeout);
  // The first caller is alone, so it takes the reader role and reads until
  // its deadline passes on the silent server.
  std::thread first([&] {
    auto r = client.Rpc(TnopMsg());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message(), kErrTimedOut);
  });
  ASSERT_EQ(nop_arrived.get_future().wait_for(seconds(10)), std::future_status::ready);
  // The second caller comes half a deadline later and sleeps: its request
  // is answered only once the reader has timed out and sent its Tflush.
  std::this_thread::sleep_for(kTimeout / 2);
  auto second = client.Read(1, 0, 64);
  first.join();
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(ToString(*second), "held read");
  const auto& s = client.stats();
  EXPECT_EQ(s.timeouts.value(), 1u);
  EXPECT_EQ(s.flushed.value(), 1u);
  EXPECT_EQ(s.late_replies.value(), 0u);
  EXPECT_EQ(s.failures.value(), 0u);
  EXPECT_TRUE(client.ok());
}

// A transport whose reads are another client's Treads, as when a 9P
// connection runs over a data file in a mounted tree (a dial through an
// imported /net).  Writes vanish.
class MountedFileTransport : public MsgTransport {
 public:
  explicit MountedFileTransport(NinepClient* under) : under_(under) {}
  Result<Bytes> ReadMsg() override { return under_->Read(/*fid=*/1, 0, kMaxData); }
  Status WriteMsg(Bytes) override { return Status::Ok(); }
  void Close() override {}

 private:
  NinepClient* under_;
};

TEST(MountDriver, NestedReadEndsAtTheOuterAlarm) {
  // The inner client talks to a server that never answers, and has no
  // deadline of its own; the outer client reads through it.
  auto [silent_end, inner_end] = PipeTransport::Make();
  NinepClient inner(std::move(inner_end));
  NinepClient outer(std::make_unique<MountedFileTransport>(&inner));
  constexpr auto kTimeout = milliseconds(150);
  outer.SetRpcTimeout(kTimeout);

  auto start = std::chrono::steady_clock::now();
  auto call = std::async(std::launch::async, [&] { return outer.Rpc(TnopMsg()); });
  if (call.wait_for(seconds(5)) != std::future_status::ready) {
    ADD_FAILURE() << "the nested read did not end at the outer alarm";
    silent_end->Close();  // the inner client sees EOF, and both unwind
  }
  auto r = call.get();
  auto elapsed = std::chrono::steady_clock::now() - start;
  // The outer RPC waits out its deadline, then its flush's: each wait ends
  // at its alarm inside the inner Rpc.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message(), kErrTimedOut);
  EXPECT_GE(elapsed, 2 * kTimeout);
  EXPECT_LT(elapsed, 2 * kTimeout + milliseconds(500));
  // Each interrupted inner Tread was flushed, and the inner connection
  // lives: the alarm was not its deadline.
  EXPECT_TRUE(inner.ok());
  EXPECT_EQ(inner.stats().flushes_sent.value(), 2u);
  EXPECT_EQ(inner.stats().timeouts.value(), 0u);
  EXPECT_EQ(inner.stats().failures.value(), 0u);
}

// ---------------------------------------------------------------------------
// Network fixture for Dial retry/fallback, IL deadman, and the e2e workload
// ---------------------------------------------------------------------------

constexpr char kNdb[] = R"(sys=helix
	ip=135.104.9.31
sys=musca
	ip=135.104.9.6
sys=flaky
	ip=10.99.0.1 ip=135.104.9.6
il=9fs port=17008
il=fallback port=6009
il=deadtest port=6010
il=reaper port=6011
tcp=retry port=7001
)";

class FaultNetTest : public ::testing::Test {
 protected:
  explicit FaultNetTest(LinkParams params = LinkParams::Ether10()) : ether_(params) {}

  void SetUp() override {
    db_ = std::make_shared<Ndb>();
    ASSERT_TRUE(db_->Load(kNdb).ok());
    helix_ = std::make_unique<Node>("helix");
    musca_ = std::make_unique<Node>("musca");
    helix_->AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                     Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
    musca_->AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                     Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
    ASSERT_TRUE(BootNetwork(helix_.get(), db_, kNdb).ok());
    ASSERT_TRUE(BootNetwork(musca_.get(), db_, kNdb).ok());
  }

  EtherSegment ether_;
  std::shared_ptr<Ndb> db_;
  std::unique_ptr<Node> helix_, musca_;
};

TEST_F(FaultNetTest, DialRetriesUntilServiceAppears) {
  auto client = helix_->NewProc();

  // Nobody home yet: the single-shot dial fails fast (TCP RST).
  auto once = Dial(client.get(), "tcp!musca!retry");
  ASSERT_FALSE(once.ok());

  // The service comes up while the retrying dial is backing off.
  auto server = musca_->NewProc();
  std::thread announcer([&] {
    std::this_thread::sleep_for(milliseconds(250));
    std::string adir;
    auto afd = Announce(server.get(), "tcp!*!retry", &adir);
    ASSERT_TRUE(afd.ok()) << afd.error().message();
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    char buf[16];
    auto n = server->Read(*dfd, buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(server->Write(*dfd, buf, *n).ok());
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
    (void)server->Close(*afd);
  });

  DialOptions opts;
  opts.attempts = 40;
  opts.backoff = milliseconds(50);
  opts.multiplier = 1.5;
  opts.max_backoff = milliseconds(200);
  opts.jitter_seed = 7;
  std::string dir;
  auto fd = Dial(client.get(), "tcp!musca!retry", opts, &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "ping");

  // Satellite check: the TCP conversation exposes a stats file.
  auto sfd = client->Open(dir + "/stats", kORead);
  ASSERT_TRUE(sfd.ok());
  auto text = client->ReadString(*sfd, 1024);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("rexmit:"), std::string::npos);
  EXPECT_NE(text->find("sent:"), std::string::npos);
  (void)client->Close(*sfd);
  (void)client->Close(*fd);
  announcer.join();
}

TEST_F(FaultNetTest, DialFallsThroughDeadAddressToLiveOne) {
  // "flaky" advertises an unroutable first address and musca's real one
  // second; CS hands back both and Dial walks them in order.
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "il!*!fallback", &adir);
  ASSERT_TRUE(afd.ok()) << afd.error().message();
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok()) << lcfd.error().message();
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok()) << dfd.error().message() << " ldir=" << ldir;
    char buf[16];
    auto n = server->Read(*dfd, buf, sizeof buf);
    if (n.ok()) {
      (void)server->Write(*dfd, buf, *n);
    }
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });

  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "il!flaky!fallback", &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  auto rfd = client->Open(dir + "/remote", kORead);
  ASSERT_TRUE(rfd.ok());
  auto remote = client->ReadString(*rfd, 64);
  ASSERT_TRUE(remote.ok());
  EXPECT_NE(remote->find("135.104.9.6"), std::string::npos) << *remote;
  (void)client->Close(*rfd);
  // Round-trip before closing, so the accept side is done with the call.
  ASSERT_TRUE(client->WriteString(*fd, "bye").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "bye");
  (void)client->Close(*fd);
  listener.join();
}

TEST_F(FaultNetTest, IlDeadmanKillsConnectionAcrossDeadLink) {
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "il!*!deadtest", &adir);
  ASSERT_TRUE(afd.ok()) << afd.error().message();
  int server_dfd = -1, server_lcfd = -1;
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    char buf[16];
    auto n = server->Read(*dfd, buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    server_dfd = *dfd;
    server_lcfd = *lcfd;
  });

  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "il!musca!deadtest", &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "hello").ok());
  listener.join();

  // Cut the cable, then leave a message unacknowledged: queries go out,
  // nothing comes back, and the deadman fires long before the full
  // exponential-backoff ladder would.
  ether_.SetPartitioned(true);
  ASSERT_TRUE(client->WriteString(*fd, "doomed").ok());

  // The blocked read must return (error or EOF), not hang.
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);
  EXPECT_TRUE(!n.ok() || *n == 0);

  auto sfd = client->Open(dir + "/stats", kORead);
  ASSERT_TRUE(sfd.ok());
  auto text = client->ReadString(*sfd, 1024);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("deadman: 1"), std::string::npos) << *text;
  EXPECT_EQ(text->find("queries: 0"), std::string::npos) << *text;
  (void)client->Close(*sfd);
  (void)client->Close(*fd);
  EXPECT_GT(ether_.fault_stats().drops_partition.value(), 0u);

  ether_.SetPartitioned(false);
  (void)server->Close(server_dfd);
  (void)server->Close(server_lcfd);
  (void)server->Close(*afd);
}

TEST_F(FaultNetTest, AbandonedPeerIsReapedByKeepalive) {
  // A server holds an established conversation whose client died across a
  // partition (deadman kill — no kClose ever arrives).  The server side is
  // idle: nothing unacked, so no query ladder runs, and without keep-alives
  // its reader would block forever (and a Service join would hang on it).
  // The keep-alive probe must draw a reset from the peer — which has no
  // record of the conversation — and unblock the read.
  auto server = musca_->NewProc();
  std::string adir;
  auto afd = Announce(server.get(), "il!*!reaper", &adir);
  ASSERT_TRUE(afd.ok()) << afd.error().message();
  std::atomic<bool> server_read_returned{false};
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(server.get(), adir, &ldir);
    ASSERT_TRUE(lcfd.ok());
    auto dfd = Accept(server.get(), *lcfd, ldir);
    ASSERT_TRUE(dfd.ok());
    char buf[16];
    auto n = server->Read(*dfd, buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(server->Write(*dfd, buf, *n).ok());
    // Block exactly like an exportfs session reader does.
    n = server->Read(*dfd, buf, sizeof buf);
    EXPECT_TRUE(!n.ok() || *n == 0);
    server_read_returned = true;
    (void)server->Close(*dfd);
    (void)server->Close(*lcfd);
  });

  auto client = helix_->NewProc();
  std::string dir;
  auto fd = Dial(client.get(), "il!musca!reaper", &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  ASSERT_TRUE(client->WriteString(*fd, "hi").ok());
  char buf[16];
  auto n = client->Read(*fd, buf, sizeof buf);  // echoed: both sides go idle
  ASSERT_TRUE(n.ok());

  // The client dies behind a partition: its close handshake all drops, so
  // the server never hears the hangup.
  ether_.SetPartitioned(true);
  (void)client->Close(*fd);
  std::this_thread::sleep_for(milliseconds(800));  // close ladder exhausts
  ether_.SetPartitioned(false);

  for (int i = 0; i < 100 && !server_read_returned.load(); i++) {
    std::this_thread::sleep_for(milliseconds(100));
  }
  EXPECT_TRUE(server_read_returned.load());
  listener.join();
  (void)server->Close(*afd);
}

// ---------------------------------------------------------------------------
// The acceptance test: 9P over IL across a hostile link
// ---------------------------------------------------------------------------

class HostileLinkTest : public FaultNetTest {
 protected:
  static LinkParams HostileEther() {
    LinkParams params = LinkParams::Ether10();
    params.seed = 0x9f5eed;
    params.faults = FaultProfile::Hostile();  // 10% burst loss + reorder + dup + corrupt
    return params;
  }
  HostileLinkTest() : FaultNetTest(HostileEther()) {}
};

Bytes OpPayload(int op) {
  Bytes data(64);
  for (size_t j = 0; j < data.size(); j++) {
    data[j] = static_cast<uint8_t>(op * 131 + static_cast<int>(j) * 7 + 5);
  }
  return data;
}

uint64_t ParseStat(const std::string& text, const std::string& key) {
  auto pos = text.find(key + ": ");
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(text.c_str() + pos + key.size() + 2, nullptr, 10);
}

TEST_F(HostileLinkTest, NinePOverIlCompletesWorkloadWithRecovery) {
  // musca exports its name space over il!*!9fs; helix runs 1000 read/write
  // operations against it through burst loss, reordering, duplication,
  // corruption, and a 2-second partition in the middle.
  auto svc = StartExportfs(std::shared_ptr<Proc>(musca_->NewProc().release()),
                           "il!*!9fs");
  ASSERT_TRUE(svc.ok()) << svc.error().message();

  auto proc = helix_->NewProc();

  struct Session {
    std::shared_ptr<NinepClient> client;
    std::string dir;
    uint32_t file_fid = 0;
  };
  Session sess;
  struct {
    uint64_t rpcs = 0, timeouts = 0, flushes_sent = 0, flushed = 0,
             late_replies = 0, failures = 0;
  } totals;
  uint64_t il_rexmit = 0;
  int reconnects = -1;  // first connect is not a *re*connect

  auto harvest = [&] {
    if (sess.client == nullptr) {
      return;
    }
    const auto& s = sess.client->stats();
    totals.rpcs += s.rpcs.value();
    totals.timeouts += s.timeouts.value();
    totals.flushes_sent += s.flushes_sent.value();
    totals.flushed += s.flushed.value();
    totals.late_replies += s.late_replies.value();
    totals.failures += s.failures.value();
    // The conversation's stats file still answers while the fd is open,
    // even after the connection died.
    auto sfd = proc->Open(sess.dir + "/stats", kORead);
    if (sfd.ok()) {
      auto text = proc->ReadString(*sfd, 1024);
      if (text.ok()) {
        il_rexmit += ParseStat(*text, "rexmit");
      }
      (void)proc->Close(*sfd);
    }
    sess.client.reset();
  };

  auto connect = [&]() -> bool {
    harvest();
    reconnects++;
    DialOptions opts;
    opts.attempts = 10;
    opts.backoff = milliseconds(50);
    opts.multiplier = 1.5;
    opts.max_backoff = milliseconds(400);
    opts.jitter_seed = static_cast<uint64_t>(reconnects) + 1;
    std::string dir;
    auto dfd = Dial(proc.get(), "il!musca!9fs", opts, &dir);
    if (!dfd.ok()) {
      return false;
    }
    auto transport = proc->TransportForFd(*dfd, DialPathDelimited(dir));
    if (transport == nullptr) {
      return false;
    }
    if (!transport->WriteMsg(ToBytes("/")).ok()) {
      return false;
    }
    auto client = std::make_shared<NinepClient>(std::move(transport));
    client->SetRpcTimeout(milliseconds(500));
    if (!client->Session().ok()) {
      return false;
    }
    uint32_t root = client->AllocFid();
    if (!client->Attach(root, "glenda", "").ok()) {
      return false;
    }
    uint32_t fid = client->AllocFid();
    // The workload file persists across reconnects: walk to it, or create
    // it on the first session.
    if (client->CloneWalk(root, fid, {"e2e"}).ok()) {
      if (!client->Open(fid, kORdWr).ok()) {
        return false;
      }
    } else {
      if (!client->CloneWalk(root, fid, {}).ok()) {
        return false;
      }
      if (!client->Create(fid, "e2e", 0666, kORdWr).ok()) {
        return false;
      }
    }
    sess.client = std::move(client);
    sess.dir = dir;
    sess.file_fid = fid;
    return true;
  };

  // One 2-second partition once the workload is warmed up.
  std::atomic<int> ops_done{0};
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    while (ops_done.load() < 400 && !stop.load()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    if (stop.load()) {
      return;
    }
    ether_.SetPartitioned(true);
    std::this_thread::sleep_for(milliseconds(2000));
    ether_.SetPartitioned(false);
  });

  constexpr int kOps = 1000;
  constexpr int kSlots = 32;
  int mismatches = 0;
  bool workload_ok = true;
  for (int op = 0; op < kOps && workload_ok; op++) {
    int slot = (op / 2) % kSlots;
    uint64_t offset = static_cast<uint64_t>(slot) * 64;
    bool done = false;
    for (int attempt = 0; attempt < 60 && !done; attempt++) {
      if (sess.client == nullptr && !connect()) {
        continue;  // dial layer already backed off
      }
      if (op % 2 == 0) {
        // A timed-out write may have been applied server-side before the
        // flush; retries rewrite the same bytes, so the workload stays
        // idempotent.
        auto w = sess.client->Write(sess.file_fid, offset, OpPayload(op));
        if (w.ok()) {
          done = true;
        } else {
          harvest();
        }
      } else {
        auto r = sess.client->Read(sess.file_fid, offset, 64);
        if (r.ok()) {
          if (*r != OpPayload(op - 1)) {
            mismatches++;
          }
          done = true;
        } else {
          harvest();
        }
      }
    }
    if (!done) {
      workload_ok = false;
    }
    ops_done++;
  }
  stop = true;
  chaos.join();
  harvest();

  EXPECT_TRUE(workload_ok) << "an operation exhausted its retries";
  EXPECT_EQ(mismatches, 0) << "corrupted payloads reached the application";
  // Recovery machinery demonstrably fired:
  EXPECT_GE(totals.timeouts, 1u);
  EXPECT_GE(totals.flushes_sent, 1u);
  EXPECT_GE(totals.failures, 1u);
  EXPECT_GE(reconnects, 1);
  EXPECT_GT(il_rexmit, 0u);
  // And the medium really was hostile:
  const auto& fs = ether_.fault_stats();
  EXPECT_GT(fs.drops_burst.value(), 0u);
  EXPECT_GT(fs.drops_partition.value(), 0u);
  EXPECT_GT(fs.dups.value(), 0u);
  EXPECT_GT(fs.reorders.value(), 0u);
  EXPECT_GT(fs.corruptions.value(), 0u);
}

}  // namespace
}  // namespace plan9
