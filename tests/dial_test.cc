// §5 library routines: address defaulting and parameterized dial sweeps
// across every transport.
#include <gtest/gtest.h>

#include <thread>

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/sim/datakit.h"
#include "src/world/boot.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

TEST(NetMkAddr, DefaultsLikeThePaper) {
  // netmkaddr semantics: fill in missing network and service.
  EXPECT_EQ(NetMkAddr("helix", "", "9fs"), "net!helix!9fs");
  EXPECT_EQ(NetMkAddr("helix", "il", "9fs"), "il!helix!9fs");
  EXPECT_EQ(NetMkAddr("il!helix", "", "9fs"), "il!helix!9fs");
  EXPECT_EQ(NetMkAddr("il!helix!9fs", "tcp", "echo"), "il!helix!9fs");
  EXPECT_EQ(NetMkAddr("helix", "", ""), "net!helix");
}

TEST(DialPathDelimited, ClassifiesProtocols) {
  EXPECT_TRUE(DialPathDelimited("/net/il/3"));
  EXPECT_TRUE(DialPathDelimited("/net/dk/0"));
  EXPECT_TRUE(DialPathDelimited("/net/cyclone/1"));
  EXPECT_FALSE(DialPathDelimited("/net/tcp/2"));
  EXPECT_FALSE(DialPathDelimited("/n/gateway/net/tcp/5"));
}

// Parameterized sweep: the same dial/echo exchange must work identically
// over every connection-oriented transport — "All protocol devices look
// identical so user programs contain no network-specific code."
constexpr char kNdb[] = R"(sys=helix
	ip=135.104.9.31 dk=nj/astro/helix
sys=musca
	ip=135.104.9.6 dk=nj/astro/musca
il=sweep port=6001
tcp=sweep port=6001
)";

class DialSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    auto db = std::make_shared<Ndb>();
    ASSERT_TRUE(db->Load(kNdb).ok());
    helix_.AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                    Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
    musca_.AddEther(&ether_, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                    Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
    helix_.AddDatakit(&dk_, "nj/astro/helix");
    musca_.AddDatakit(&dk_, "nj/astro/musca");
    ASSERT_TRUE(BootNetwork(&helix_, db, kNdb).ok());
    ASSERT_TRUE(BootNetwork(&musca_, db, kNdb).ok());
    proto_ = GetParam();
    announce_addr_ = proto_ + "!*!sweep";
    dial_addr_ = proto_ + "!musca!sweep";
    if (proto_ == "dk") {
      announce_addr_ = "dk!*!sweep";
      dial_addr_ = "dk!nj/astro/musca!sweep";
    }
  }

  // Serves echo on musca: each call is echoed until the caller hangs up,
  // then the next is taken, `calls` times or until TearDown withdraws the
  // announcement.
  void EchoCalls(int calls) {
    announcer_ = musca_.NewProc();
    std::string adir;
    auto afd = Announce(announcer_.get(), announce_addr_, &adir);
    ASSERT_TRUE(afd.ok()) << afd.error().message();
    afd_ = *afd;
    listener_ = std::thread([this, adir, calls] {
      auto server = musca_.NewProc();
      for (int i = 0; i < calls; i++) {
        std::string ldir;
        auto lcfd = Listen(server.get(), adir, &ldir);
        if (!lcfd.ok()) {
          return;
        }
        auto dfd = Accept(server.get(), *lcfd, ldir);
        ASSERT_TRUE(dfd.ok());
        char buf[128];
        for (;;) {
          auto n = server->Read(*dfd, buf, sizeof buf);
          if (!n.ok() || *n == 0) {
            break;
          }
          ASSERT_TRUE(server->Write(*dfd, buf, *n).ok());
        }
        (void)server->Close(*dfd);
        (void)server->Close(*lcfd);
      }
    });
  }

  void TearDown() override {
    if (announcer_ != nullptr) {
      (void)announcer_->Close(afd_);
    }
    if (listener_.joinable()) {
      listener_.join();
    }
  }

  EtherSegment ether_{LinkParams::Ether10()};
  DatakitSwitch dk_;
  Node helix_{"helix"}, musca_{"musca"};
  std::string proto_, announce_addr_, dial_addr_;
  std::unique_ptr<Proc> announcer_;
  int afd_ = -1;
  std::thread listener_;
};
TEST_P(DialSweep, EchoOverEveryTransport) {
  EchoCalls(1);
  auto client = helix_.NewProc();
  std::string dir;
  auto fd = Dial(client.get(), dial_addr_, &dir);
  ASSERT_TRUE(fd.ok()) << fd.error().message();
  EXPECT_NE(dir.find(proto_), std::string::npos);

  // Several exchanges, varied sizes.
  for (size_t size : {1u, 57u, 1024u}) {
    std::string msg(size, 'm');
    ASSERT_TRUE(client->WriteString(*fd, msg).ok());
    std::string got;
    char buf[2048];
    while (got.size() < size) {
      auto n = client->Read(*fd, buf, sizeof buf);
      ASSERT_TRUE(n.ok());
      ASSERT_GT(*n, 0u);
      got.append(buf, *n);
    }
    EXPECT_EQ(got, msg);
  }
  ASSERT_TRUE(client->Close(*fd).ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, DialSweep,
                         ::testing::Values("il", "tcp", "dk"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// More sequential calls than a protocol has conversation slots, each one
// dialed, used and hung up: every slot a finished call held comes back, on
// both ends.  TCP is left out: TIME_WAIT rightly holds one slot per recent
// call for 250 ms.
class DialSweepRepeat : public DialSweep {};

TEST_P(DialSweepRepeat, SequentialCallsReuseSlots) {
  constexpr int kCalls = 300;
  EchoCalls(kCalls);
  auto client = helix_.NewProc();
  for (int i = 0; i < kCalls; i++) {
    auto fd = Dial(client.get(), dial_addr_);
    ASSERT_TRUE(fd.ok()) << "call " << i << ": " << fd.error().message();
    ASSERT_TRUE(client->WriteString(*fd, "ping").ok());
    auto got = client->ReadString(*fd, 16);
    ASSERT_TRUE(got.ok()) << "call " << i << ": " << got.error().message();
    EXPECT_EQ(*got, "ping");
    ASSERT_TRUE(client->Close(*fd).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, DialSweepRepeat, ::testing::Values("il", "dk"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace plan9
