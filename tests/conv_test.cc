// The conversation core shared by every protocol device: one slot-reuse
// rule, whatever the protocol.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/datakit.h"
#include "src/sim/ether_segment.h"
#include "src/sim/wire.h"
#include "src/world/node.h"

namespace plan9 {
namespace {

// A clone file opened and closed without `connect` hands its slot straight
// back: more cycles than a protocol has slots all land on conversation 0.
class CloneCycle : public ::testing::TestWithParam<const char*> {};

TEST_P(CloneCycle, ClosedCloneFreesItsSlot) {
  EtherSegment ether(LinkParams::Ether10());
  DatakitSwitch dk;
  Wire fiber(LinkParams::Cyclone());
  Node helix("helix");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  helix.AddDatakit(&dk, "nj/astro/helix");
  helix.AddCyclone(&fiber, Wire::kA);
  auto proc = helix.NewProc();
  const std::string clone = std::string("/net/") + GetParam() + "/clone";
  for (int i = 0; i < 300; i++) {
    auto fd = proc->Open(clone, kORdWr);
    ASSERT_TRUE(fd.ok()) << "open " << i << ": " << fd.error().message();
    auto num = proc->ReadString(*fd, 32);
    ASSERT_TRUE(num.ok());
    ASSERT_EQ(*num, "0") << "open " << i;
    ASSERT_TRUE(proc->Close(*fd).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, CloneCycle,
                         ::testing::Values("il", "tcp", "udp", "dk", "ether0",
                                           "cyclone"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Before it is opened the clone file is itself; once opened it is the
// reserved conversation's ctl file, owned by whoever opened it.
TEST(CloneFile, OpenCloneIsTheConversationsCtlFile) {
  EtherSegment ether(LinkParams::Ether10());
  Node helix("helix");
  helix.AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                 Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
  auto clone = helix.base_ns()->Resolve("/net/il/clone");
  ASSERT_TRUE(clone.ok());
  Vnode* file = (*clone)->node.get();
  auto before = file->Stat();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->name, "clone");
  ASSERT_TRUE(file->Open(kORdWr, "glenda").ok());
  auto ctl = helix.base_ns()->Resolve("/net/il/0/ctl");
  ASSERT_TRUE(ctl.ok());
  auto after = file->Stat();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->name, "ctl");
  EXPECT_EQ(after->uid, "glenda");
  EXPECT_EQ(after->qid.path, (*ctl)->node->qid().path);
  EXPECT_NE(after->qid.path, before->qid.path);
  file->Close(kORdWr);
}

}  // namespace
}  // namespace plan9
