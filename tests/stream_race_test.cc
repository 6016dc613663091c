// Concurrency stress for the stream layer and IL.
//
// "There is no implicit synchronization in our streams" — the queues and
// per-stream locks are the synchronization.  These tests hammer one Stream
// from eight kprocs doing overlapping Read/Write/push/pop/hangup, and churn
// IL dial/transfer/close cycles from two sides at once.  They assert very
// little: the point is to give TSan (and the lockcheck order graph) real
// interleavings to chew on in CI, and to hang loudly if a wakeup is lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "src/dev/ether.h"
#include "src/inet/il.h"
#include "src/inet/ip.h"
#include "src/sim/ether_segment.h"
#include "src/sim/medium.h"
#include "src/stream/block.h"
#include "src/stream/stream.h"
#include "src/task/kproc.h"

namespace plan9 {
namespace {

// Loops data blocks back toward the process, one half of a pipe.
class EchoDevice : public StreamModule {
 public:
  std::string_view name() const override { return "echo"; }
  void DownPut(BlockPtr b) override {
    if (b->type == BlockType::kControl) {
      return;  // swallow downstream control messages
    }
    PutUp(std::move(b));
  }
};

// A do-nothing pushable module, so push/pop churn has something to insert.
class PassthruModule : public StreamModule {
 public:
  std::string_view name() const override { return "race.passthru"; }
};

bool RegisterPassthru() {
  static bool once = [] {
    ModuleRegistry::Instance().Register(
        "race.passthru", [] { return std::make_unique<PassthruModule>(); });
    return true;
  }();
  return once;
}

TEST(StreamRace, ConcurrentReadWritePushPopHangup) {
  RegisterPassthru();
  Stream stream(std::make_unique<EchoDevice>());

  std::atomic<size_t> bytes_read{0};
  std::atomic<int> writes_ok{0};

  // 2 writers + 2 readers + 2 push/pop churners + 1 poller + 1 hangup = 8.
  std::vector<Kproc> procs;
  for (int w = 0; w < 2; w++) {
    procs.emplace_back("race.writer", [&stream, &writes_ok] {
      const std::string payload(512, 'w');
      for (int i = 0; i < 200; i++) {
        auto n = stream.Write(payload);
        if (!n.ok()) {
          return;  // hangup beat us; expected
        }
        writes_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int r = 0; r < 2; r++) {
    procs.emplace_back("race.reader", [&stream, &bytes_read] {
      uint8_t buf[1024];
      for (;;) {
        auto n = stream.Read(buf, sizeof buf);
        if (!n.ok() || *n == 0) {
          return;  // EOF after hangup drains the head queue
        }
        bytes_read.fetch_add(*n, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < 2; p++) {
    procs.emplace_back("race.pushpop", [&stream] {
      for (int i = 0; i < 100; i++) {
        (void)stream.Push("race.passthru");
        (void)stream.Pop();  // may pop the other churner's module; fine
      }
    });
  }
  procs.emplace_back("race.poller", [&stream] {
    for (int i = 0; i < 400; i++) {
      (void)stream.HasInput();
      (void)stream.ModuleCount();
      (void)stream.hungup();
    }
  });
  procs.emplace_back("race.hangup", [&stream] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stream.Hangup();  // unblocks writers (error) and readers (EOF)
  });

  for (auto& p : procs) {
    p.Join();
  }
  EXPECT_TRUE(stream.hungup());
  // Some traffic must have made it through before the hangup.
  EXPECT_GT(writes_ok.load(), 0);
  EXPECT_GT(bytes_read.load(), 0u);
}

// Dial/transfer/close churn: two client threads against one IL stack pair,
// each cycling fresh conversations on its own port while the other's
// traffic shares the wire, the IP stacks, and the protocol lock.
TEST(StreamRace, IlDialCloseChurn) {
  EtherSegment segment(LinkParams{.latency = std::chrono::microseconds(50), .faults = {}});
  Ipv4Addr alice_ip = Ipv4Addr::FromOctets(135, 104, 9, 31);
  Ipv4Addr bob_ip = Ipv4Addr::FromOctets(135, 104, 9, 6);
  EtherProto alice_ether(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf0});
  EtherProto bob_ether(&segment, MacAddr{8, 0, 0x69, 2, 0x22, 0xf1});
  IpStack alice, bob;
  alice.AddEtherInterface(&alice_ether, alice_ip, Ipv4Addr{0xffffff00});
  bob.AddEtherInterface(&bob_ether, bob_ip, Ipv4Addr{0xffffff00});
  IlProto ail(&alice), bil(&bob);

  std::atomic<int> cycles_done{0};
  auto churn = [&](uint16_t port) {
    NetConv* server = bil.Clone().take();
    char ctl[32];
    std::snprintf(ctl, sizeof ctl, "announce %u", port);
    ASSERT_TRUE(server->Ctl(ctl).ok());

    for (int i = 0; i < 6; i++) {
      NetConv* client = ail.Clone().take();
      std::snprintf(ctl, sizeof ctl, "connect 135.104.9.6!%u", port);
      ASSERT_TRUE(client->Ctl(ctl).ok());
      ASSERT_TRUE(client->WaitReady().ok());
      auto idx = server->Listen();
      ASSERT_TRUE(idx.ok());
      NetConv* accepted = bil.Conv(static_cast<size_t>(*idx));
      ASSERT_NE(accepted, nullptr);
      ASSERT_TRUE(accepted->WaitReady().ok());

      const std::string msg = "churn " + std::to_string(port) + "/" + std::to_string(i);
      ASSERT_TRUE(client->Write(reinterpret_cast<const uint8_t*>(msg.data()), msg.size())
                      .ok());
      Bytes buf(64);
      auto n = accepted->Read(buf.data(), buf.size());
      ASSERT_TRUE(n.ok());
      EXPECT_EQ(std::string(buf.begin(), buf.begin() + static_cast<long>(*n)), msg);

      client->CloseUser();
      accepted->CloseUser();
      cycles_done.fetch_add(1, std::memory_order_relaxed);
    }
    server->CloseUser();
  };

  Kproc t1("race.churn.17100", [&] { churn(17100); });
  Kproc t2("race.churn.17101", [&] { churn(17101); });
  t1.Join();
  t2.Join();
  EXPECT_EQ(cycles_done.load(), 12);
}

}  // namespace
}  // namespace plan9
