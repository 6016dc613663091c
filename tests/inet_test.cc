#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/rand.h"
#include "src/dev/ether.h"
#include "src/inet/il.h"
#include "src/inet/ip.h"
#include "src/inet/tcp.h"
#include "src/inet/udp.h"
#include "src/sim/ether_segment.h"
#include "src/sim/medium.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {

// A little two-host internet: alice and bob on one Ethernet segment.
struct TwoHosts {
  explicit TwoHosts(LinkParams params = LinkParams{.latency = std::chrono::microseconds(50),
                                                   .faults = {}})
      : segment(params),
        alice_ether(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf0}),
        bob_ether(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf1}),
        alice_ip(Ipv4Addr::FromOctets(135, 104, 9, 31)),
        bob_ip(Ipv4Addr::FromOctets(135, 104, 9, 6)) {
    alice.AddEtherInterface(&alice_ether, alice_ip, Ipv4Addr{0xffffff00});
    bob.AddEtherInterface(&bob_ether, bob_ip, Ipv4Addr{0xffffff00});
  }
  EtherSegment segment;
  // The drivers outlive the stacks hooked into them.
  EtherProto alice_ether, bob_ether;
  IpStack alice, bob;
  Ipv4Addr alice_ip, bob_ip;
};

std::string ReadSome(NetConv* conv, size_t max = 4096) {
  Bytes buf(max);
  auto n = conv->Read(buf.data(), buf.size());
  EXPECT_TRUE(n.ok());
  return std::string(buf.begin(), buf.begin() + static_cast<long>(n.value_or(0)));
}

TEST(Ip, ChecksumKnownVector) {
  // RFC 1071 example bytes.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  uint16_t sum = InetChecksum(data, sizeof data);
  // Recomputing over data + stored checksum must give 0.
  uint8_t with[10];
  memcpy(with, data, 8);
  with[8] = static_cast<uint8_t>(sum >> 8);
  with[9] = static_cast<uint8_t>(sum);
  EXPECT_EQ(InetChecksum(with, sizeof with), 0);
}

TEST(Ip, ParseFormatAddresses) {
  auto a = IpFromString("135.104.9.31");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(IpToString(*a), "135.104.9.31");
  EXPECT_FALSE(IpFromString("1.2.3").ok());
  EXPECT_FALSE(IpFromString("1.2.3.299").ok());
  EXPECT_FALSE(IpFromString("a.b.c.d").ok());
}

TEST(Ip, ClassMasks) {
  EXPECT_EQ(ClassMask(Ipv4Addr::FromOctets(10, 0, 0, 1)).v, 0xff000000u);
  EXPECT_EQ(ClassMask(Ipv4Addr::FromOctets(135, 104, 9, 31)).v, 0xffff0000u);
  EXPECT_EQ(ClassMask(Ipv4Addr::FromOctets(192, 168, 1, 1)).v, 0xffffff00u);
}

TEST(Ip, SourceForUsesInterfaceAddr) {
  TwoHosts net;
  auto src = net.alice.SourceFor(net.bob_ip);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->v, net.alice_ip.v);
  EXPECT_FALSE(net.alice.SourceFor(Ipv4Addr::FromOctets(1, 2, 3, 4)).ok());
}

TEST(Udp, DatagramRoundTripPreservesBoundaries) {
  TwoHosts net;
  UdpProto audp(&net.alice), budp(&net.bob);

  auto server = budp.Clone();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Ctl("announce 7").ok());

  auto client = audp.Clone();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ctl("connect 135.104.9.6!7").ok());
  ASSERT_TRUE((*client)->Write(reinterpret_cast<const uint8_t*>("ping"), 4).ok());
  ASSERT_TRUE((*client)->Write(reinterpret_cast<const uint8_t*>("pong!"), 5).ok());

  auto spawned_idx = (*server)->Listen();
  ASSERT_TRUE(spawned_idx.ok());
  NetConv* spawned = budp.Conv(static_cast<size_t>(*spawned_idx));
  ASSERT_NE(spawned, nullptr);

  // Datagram boundaries preserved: two reads, two messages.
  EXPECT_EQ(ReadSome(spawned), "ping");
  EXPECT_EQ(ReadSome(spawned), "pong!");

  // And the spawned conversation can answer.
  ASSERT_TRUE(spawned->Write(reinterpret_cast<const uint8_t*>("yes?"), 4).ok());
  EXPECT_EQ(ReadSome(*client), "yes?");
}

TEST(Udp, BindFixesTheLocalPort) {
  TwoHosts net;
  UdpProto audp(&net.alice), budp(&net.bob);
  NetConv* server = budp.Clone().take();
  ASSERT_TRUE(server->Ctl("announce 7").ok());
  NetConv* client = audp.Clone().take();
  ASSERT_TRUE(client->Ctl("bind 7777").ok());
  ASSERT_TRUE(client->Ctl("connect 135.104.9.6!7").ok());
  EXPECT_EQ(client->Local(), "135.104.9.31 7777\n");
  ASSERT_TRUE(client->Write(reinterpret_cast<const uint8_t*>("from 7777"), 9).ok());
  auto idx = server->Listen();
  ASSERT_TRUE(idx.ok());
  NetConv* call = budp.Conv(static_cast<size_t>(*idx));
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->Remote(), "135.104.9.31 7777\n");
  EXPECT_EQ(ReadSome(call), "from 7777");
}

TEST(Udp, LossyNetworkDropsDatagrams) {
  TwoHosts net{LinkParams{.latency = std::chrono::microseconds(10),
                          .seed = 42,
                          .faults = {.loss_good = 0.5, .partitions = {}}}};
  UdpProto audp(&net.alice), budp(&net.bob);
  auto server = budp.Clone();
  ASSERT_TRUE((*server)->Ctl("announce 9").ok());
  auto client = audp.Clone();
  ASSERT_TRUE((*client)->Ctl("connect 135.104.9.6!9").ok());
  // First datagram rides behind the ARP exchange, which itself can be lost;
  // send a burst and verify *some* but not all arrive (no reliability).
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE((*client)->Write(reinterpret_cast<const uint8_t*>("x"), 1).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto idx = (*server)->Listen();
  if (!idx.ok()) {
    // Statistically near-impossible with seed 42, but loss could eat all.
    GTEST_SKIP() << "all datagrams lost";
  }
  NetConv* spawned = budp.Conv(static_cast<size_t>(*idx));
  int got = 0;
  while (spawned->stream()->HasInput() && got < 40) {
    ReadSome(spawned);
    got++;
  }
  EXPECT_GT(got, 0);
  EXPECT_LT(got, 40);  // with 50% loss each way, some must vanish
}

class IlTest : public ::testing::Test {
 protected:
  void Dial(const char* addr = "connect 135.104.9.6!17008") {
    server_conv_ = bil_->Clone().take();
    ASSERT_TRUE(server_conv_->Ctl("announce 17008").ok());
    client_conv_ = ail_->Clone().take();
    ASSERT_TRUE(client_conv_->Ctl(addr).ok());
    ASSERT_TRUE(client_conv_->WaitReady().ok());
    auto idx = server_conv_->Listen();
    ASSERT_TRUE(idx.ok());
    accepted_ = bil_->Conv(static_cast<size_t>(*idx));
    ASSERT_NE(accepted_, nullptr);
    ASSERT_TRUE(accepted_->WaitReady().ok());
  }

  void Build(LinkParams params) {
    net_ = std::make_unique<TwoHosts>(params);
    ail_ = std::make_unique<IlProto>(&net_->alice);
    bil_ = std::make_unique<IlProto>(&net_->bob);
  }

  std::unique_ptr<TwoHosts> net_;
  std::unique_ptr<IlProto> ail_, bil_;
  NetConv* server_conv_ = nullptr;
  NetConv* client_conv_ = nullptr;
  NetConv* accepted_ = nullptr;
};

TEST_F(IlTest, ConnectTransferClose) {
  Build(LinkParams{.latency = std::chrono::microseconds(50), .faults = {}});
  Dial();
  ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("hello il"), 8).ok());
  EXPECT_EQ(ReadSome(accepted_), "hello il");
  ASSERT_TRUE(accepted_->Write(reinterpret_cast<const uint8_t*>("ack"), 3).ok());
  EXPECT_EQ(ReadSome(client_conv_), "ack");
  client_conv_->CloseUser();
  // Server side sees EOF.
  EXPECT_EQ(ReadSome(accepted_), "");
}

TEST_F(IlTest, PreservesMessageBoundaries) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  Dial();
  for (int i = 0; i < 10; i++) {
    std::string msg = "message-" + std::to_string(i);
    ASSERT_TRUE(client_conv_
                    ->Write(reinterpret_cast<const uint8_t*>(msg.data()), msg.size())
                    .ok());
  }
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(ReadSome(accepted_), "message-" + std::to_string(i));
  }
}

TEST_F(IlTest, ReliableUnderLoss) {
  // 15% loss each way: IL must deliver everything, in order.
  Build(LinkParams{.latency = std::chrono::microseconds(20),
                   .seed = 7,
                   .faults = {.loss_good = 0.15, .partitions = {}}});
  Dial();
  constexpr int kMessages = 60;
  std::thread sender([&] {
    for (int i = 0; i < kMessages; i++) {
      std::string msg = "m" + std::to_string(i);
      ASSERT_TRUE(client_conv_
                      ->Write(reinterpret_cast<const uint8_t*>(msg.data()), msg.size())
                      .ok());
    }
  });
  for (int i = 0; i < kMessages; i++) {
    EXPECT_EQ(ReadSome(accepted_), "m" + std::to_string(i));
  }
  sender.join();
  const auto& stats = static_cast<IlConv*>(client_conv_)->metrics();
  EXPECT_GT(stats.retransmits.value() + stats.queries_sent.value(), 0u)
      << "loss must trigger recovery";
}

TEST_F(IlTest, LargeMessagesFragmentAndReassemble) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  Dial();
  Bytes big(16 * 1024);
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(client_conv_->Write(big.data(), big.size()).ok());
  Bytes got(big.size());
  size_t off = 0;
  while (off < got.size()) {
    auto n = accepted_->Read(got.data() + off, got.size() - off);
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    off += *n;
  }
  EXPECT_EQ(got, big);
  EXPECT_GT(net_->alice.stats().fragments_sent.value(), 0u)
      << "16K exceeds the ether MTU";
}

TEST_F(IlTest, ConnectToUnannouncedPortIsRefused) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  auto conv = ail_->Clone().take();
  ASSERT_TRUE(conv->Ctl("connect 135.104.9.6!999").ok());
  auto status = conv->WaitReady();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().message(), kErrConnRefused);
}

TEST_F(IlTest, AdaptiveRttConverges) {
  Build(LinkParams{.latency = std::chrono::microseconds(500), .faults = {}});
  Dial();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("x"), 1).ok());
    ReadSome(accepted_);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto srtt = static_cast<IlConv*>(client_conv_)->Srtt();
  // srtt should be near 2*latency (request+ack), well under the initial 100ms.
  EXPECT_GT(srtt.count(), 500);
  EXPECT_LT(srtt.count(), 50'000);
}

class TcpTest : public ::testing::Test {
 protected:
  void Build(LinkParams params) {
    net_ = std::make_unique<TwoHosts>(params);
    atcp_ = std::make_unique<TcpProto>(&net_->alice);
    btcp_ = std::make_unique<TcpProto>(&net_->bob);
  }
  void Dial(uint16_t port = 564) {
    server_conv_ = btcp_->Clone().take();
    ASSERT_TRUE(server_conv_->Ctl("announce " + std::to_string(port)).ok());
    client_conv_ = atcp_->Clone().take();
    ASSERT_TRUE(
        client_conv_->Ctl("connect 135.104.9.6!" + std::to_string(port)).ok());
    ASSERT_TRUE(client_conv_->WaitReady().ok());
    auto idx = server_conv_->Listen();
    ASSERT_TRUE(idx.ok());
    accepted_ = btcp_->Conv(static_cast<size_t>(*idx));
    ASSERT_NE(accepted_, nullptr);
  }

  std::unique_ptr<TwoHosts> net_;
  std::unique_ptr<TcpProto> atcp_, btcp_;
  NetConv* server_conv_ = nullptr;
  NetConv* client_conv_ = nullptr;
  NetConv* accepted_ = nullptr;
};

TEST_F(TcpTest, ConnectTransfer) {
  Build(LinkParams{.latency = std::chrono::microseconds(50), .faults = {}});
  Dial();
  ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("GET /"), 5).ok());
  std::string got;
  while (got.size() < 5) {
    got += ReadSome(accepted_);
  }
  EXPECT_EQ(got, "GET /");
}

TEST_F(TcpTest, DoesNotPreserveDelimiters) {
  // "TCP ... does not preserve delimiters": two writes may arrive as one
  // read.  We only assert the byte stream is intact and ordered.
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  Dial();
  ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("abc"), 3).ok());
  ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("def"), 3).ok());
  std::string got;
  while (got.size() < 6) {
    got += ReadSome(accepted_);
  }
  EXPECT_EQ(got, "abcdef");
}

TEST_F(TcpTest, BulkTransferUnderLoss) {
  Build(LinkParams{.latency = std::chrono::microseconds(20),
                   .seed = 3,
                   .faults = {.loss_good = 0.08, .partitions = {}}});
  Dial();
  constexpr size_t kTotal = 200 * 1024;
  // A seeded aperiodic pattern: a segment copied from the wrong offset of
  // the send buffer cannot match by chance, as it could under i mod 256.
  Bytes pattern(kTotal);
  Rng rng(27);
  for (auto& b : pattern) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::thread sender([&] {
    constexpr size_t kChunk = 8192;
    for (size_t sent = 0; sent < kTotal; sent += kChunk) {
      ASSERT_TRUE(client_conv_->Write(pattern.data() + sent, kChunk).ok());
    }
  });
  size_t got = 0;
  Bytes buf(16384);
  while (got < kTotal) {
    auto n = accepted_->Read(buf.data(), buf.size());
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u) << "premature EOF at " << got;
    ASSERT_LE(got + *n, kTotal);
    for (size_t i = 0; i < *n; i++) {
      ASSERT_EQ(buf[i], pattern[got + i]) << "byte " << got + i << " corrupt";
    }
    got += *n;
  }
  sender.join();
  const auto& stats = static_cast<TcpConv*>(client_conv_)->metrics();
  EXPECT_GT(stats.retransmit_segs.value(), 0u);
}

TEST_F(TcpTest, ConnectRefusedByRst) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  auto conv = atcp_->Clone().take();
  ASSERT_TRUE(conv->Ctl("connect 135.104.9.6!81").ok());
  auto status = conv->WaitReady();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().message(), kErrConnRefused);
}

TEST_F(TcpTest, GracefulCloseGivesEof) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  Dial();
  ASSERT_TRUE(client_conv_->Write(reinterpret_cast<const uint8_t*>("bye"), 3).ok());
  std::string got;
  while (got.size() < 3) {
    got += ReadSome(accepted_);
  }
  client_conv_->CloseUser();
  EXPECT_EQ(ReadSome(accepted_), "");  // EOF after FIN
}

TEST_F(TcpTest, StatusFileShape) {
  Build(LinkParams{.latency = std::chrono::microseconds(20), .faults = {}});
  Dial();
  auto status = static_cast<TcpConv*>(client_conv_)->StatusText();
  EXPECT_NE(status.find("Established"), std::string::npos);
  EXPECT_NE(status.find("tcp/"), std::string::npos);
}

// Teardown with traffic in flight, in a loop.  Each round boots a fresh
// two-host world, opens a few conversations, has both ends of each write
// without anyone reading, stalls the timer kproc once mid-stream, and then
// destroys protocols and hosts while messages are unacknowledged and frames
// and retransmit timers are pending.  The stall makes timer firings wait in
// the kproc's batch behind ack deliveries that re-arm the same timers.
// Such a stale firing used to erase the record of the timer just armed,
// which then outlived its conversation: it fired on freed memory
// (AddressSanitizer: heap-use-after-free in the timer callback) and stayed
// pending in the wheel after the world was gone.
template <typename Proto>
void TearDownWithTrafficInFlight(uint64_t seed) {
  constexpr int kConvs = 3;
  constexpr int kMaxWrites = 4000;
  constexpr auto kStall = std::chrono::milliseconds(80);  // past IL's and TCP's RTO floor
  size_t baseline = TimerWheel::Default().Pending();
  {
    TwoHosts net{
        LinkParams{.latency = std::chrono::microseconds(1000), .seed = seed, .faults = {}}};
    Proto client_proto(&net.alice), server_proto(&net.bob);
    NetConv* listener = server_proto.Clone().take();
    ASSERT_TRUE(listener->Ctl("announce 9009").ok());
    std::vector<NetConv*> ends;
    for (int i = 0; i < kConvs; i++) {
      NetConv* caller = client_proto.Clone().take();
      ASSERT_TRUE(caller->Ctl("connect 135.104.9.6!9009").ok());
      ASSERT_TRUE(caller->WaitReady().ok());
      auto idx = listener->Listen();
      ASSERT_TRUE(idx.ok());
      NetConv* callee = server_proto.Conv(static_cast<size_t>(*idx));
      ASSERT_NE(callee, nullptr);
      ASSERT_TRUE(callee->WaitReady().ok());
      ends.push_back(caller);
      ends.push_back(callee);
    }
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (NetConv* end : ends) {
      writers.emplace_back([end, &stop] {
        for (int i = 0; i < kMaxWrites && !stop.load(); i++) {
          if (!end->Write(reinterpret_cast<const uint8_t*>("in flight"), 9).ok()) {
            return;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    TimerWheel::Default().Schedule(std::chrono::microseconds(0),
                                   [kStall] { std::this_thread::sleep_for(kStall); });
    std::this_thread::sleep_for(kStall + std::chrono::milliseconds(20));
    stop = true;
    for (auto& w : writers) {
      w.join();
    }
  }  // protocols, then hosts, destroyed here with the last writes in flight
  // Every timer the world armed is gone once its frames in flight land.
  auto deadline = TimerWheel::Clock::now() + std::chrono::seconds(2);
  while (TimerWheel::Default().Pending() > baseline && TimerWheel::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(TimerWheel::Default().Pending(), baseline) << "seed " << seed;
}

TEST(TeardownTest, IlWorldsDieWithTrafficInFlight) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    TearDownWithTrafficInFlight<IlProto>(seed);
  }
}

TEST(TeardownTest, TcpWorldsDieWithTrafficInFlight) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    TearDownWithTrafficInFlight<TcpProto>(seed);
  }
}

// Two calls from one host to one announced port differ only in their source
// port: the demultiplexer must land each on its own conversation, so each
// end reads back only its own peer's bytes.
class TwoCallsOnePort : public ::testing::TestWithParam<std::string> {
 protected:
  static std::unique_ptr<NetProto> Make(IpStack* ip) {
    if (GetParam() == "il") {
      return std::make_unique<IlProto>(ip);
    }
    if (GetParam() == "tcp") {
      return std::make_unique<TcpProto>(ip);
    }
    return std::make_unique<UdpProto>(ip);
  }

  // TCP may split a write across reads.
  static std::string ReadExactly(NetConv* conv, size_t n) {
    std::string got;
    while (got.size() < n) {
      std::string more = ReadSome(conv, n - got.size());
      if (more.empty()) {
        break;
      }
      got += more;
    }
    return got;
  }

  static void Send(NetConv* conv, const std::string& msg) {
    ASSERT_TRUE(conv->Write(reinterpret_cast<const uint8_t*>(msg.data()), msg.size()).ok());
  }
};

TEST_P(TwoCallsOnePort, EachCallReadsOnlyItsOwnBytes) {
  TwoHosts net;
  std::unique_ptr<NetProto> client = Make(&net.alice);
  std::unique_ptr<NetProto> server = Make(&net.bob);
  NetConv* listener = server->Clone().take();
  ASSERT_TRUE(listener->Ctl("announce 7070").ok());
  NetConv* calls[2];
  NetConv* answers[2];
  for (int i = 0; i < 2; i++) {
    calls[i] = client->Clone().take();
    ASSERT_TRUE(calls[i]->Ctl("connect 135.104.9.6!7070").ok());
    ASSERT_TRUE(calls[i]->WaitReady().ok());
    Send(calls[i], "call " + std::to_string(i));  // a UDP call starts here
    // The call has a conversation of its own (the listener's is slot 0).
    // Listen would wait forever for one that landed on an earlier call.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server->ConvCount() < static_cast<size_t>(i) + 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server->ConvCount(), static_cast<size_t>(i) + 2);
    auto idx = listener->Listen();
    ASSERT_TRUE(idx.ok());
    answers[i] = server->Conv(static_cast<size_t>(*idx));
    ASSERT_NE(answers[i], nullptr);
    ASSERT_TRUE(answers[i]->WaitReady().ok());
  }
  // One quadruple apart from the caller's port.
  EXPECT_EQ(calls[0]->Remote(), calls[1]->Remote());
  EXPECT_NE(calls[0]->Local(), calls[1]->Local());
  EXPECT_NE(answers[0], answers[1]);
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(answers[i]->Local(), "135.104.9.6 7070\n");
    EXPECT_EQ(answers[i]->Remote(), calls[i]->Local());
  }
  // Interleaved, so a call that reached the wrong conversation shows.
  Send(calls[1], "more 1");
  Send(calls[0], "more 0");
  Send(answers[0], "answer 0");
  Send(answers[1], "answer 1");
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(ReadExactly(answers[i], 6), "call " + std::to_string(i));
    EXPECT_EQ(ReadExactly(answers[i], 6), "more " + std::to_string(i));
    EXPECT_EQ(ReadExactly(calls[i], 8), "answer " + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, TwoCallsOnePort, ::testing::Values("il", "tcp", "udp"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace plan9
