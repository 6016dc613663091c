#include "src/stream/stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/stream/block.h"
#include "src/stream/queue.h"

namespace plan9 {
namespace {

// A device module that loops everything written back up the stream —
// effectively one half of a pipe.  Control blocks are recorded.
class LoopbackDevice : public StreamModule {
 public:
  std::string_view name() const override { return "loopback"; }
  void DownPut(BlockPtr b) override {
    if (b->type == BlockType::kControl) {
      controls.push_back(b->Text());
      return;
    }
    PutUp(std::move(b));
  }
  std::vector<std::string> controls;
};

std::unique_ptr<Stream> MakeLoopback(LoopbackDevice** dev = nullptr) {
  auto device = std::make_unique<LoopbackDevice>();
  if (dev != nullptr) {
    *dev = device.get();
  }
  return std::make_unique<Stream>(std::move(device));
}

TEST(Queue, PutGetOrder) {
  Queue q;
  ASSERT_TRUE(q.PutNoBlock(MakeDataBlock("one")).ok());
  ASSERT_TRUE(q.PutNoBlock(MakeDataBlock("two")).ok());
  EXPECT_EQ(q.Get()->Text(), "one");
  EXPECT_EQ(q.Get()->Text(), "two");
}

TEST(Queue, CloseDrainsThenEof) {
  Queue q;
  ASSERT_TRUE(q.PutNoBlock(MakeDataBlock("last")).ok());
  q.Close();
  ASSERT_NE(q.Get(), nullptr);
  EXPECT_EQ(q.Get(), nullptr);
  EXPECT_FALSE(q.Put(MakeDataBlock("x")).ok());
}

TEST(Queue, FlowControlBlocksWriter) {
  Queue q(/*limit=*/8);
  ASSERT_TRUE(q.Put(MakeDataBlock("0123456789")).ok());  // over limit now
  std::atomic<bool> second_done{false};
  std::thread writer([&] {
    ASSERT_TRUE(q.Put(MakeDataBlock("abc")).ok());
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(second_done.load());  // writer is flow-controlled
  EXPECT_EQ(q.Get()->Text(), "0123456789");
  writer.join();
  EXPECT_TRUE(second_done.load());
}

TEST(Queue, PutBackPreservesFront) {
  Queue q;
  ASSERT_TRUE(q.PutNoBlock(MakeDataBlock("bb")).ok());
  auto b = q.Get();
  b->rp += 1;
  q.PutBack(std::move(b));
  EXPECT_EQ(q.Get()->Text(), "b");
}

TEST(Stream, WriteThenReadRoundTrips) {
  auto s = MakeLoopback();
  ASSERT_TRUE(s->Write("hello").ok());
  uint8_t buf[16];
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "hello");
}

TEST(Stream, ReadStopsAtDelimiter) {
  // Two writes => two delimited messages; one read never crosses them.
  auto s = MakeLoopback();
  ASSERT_TRUE(s->Write("first").ok());
  ASSERT_TRUE(s->Write("second").ok());
  uint8_t buf[64];
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "first");
  n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "second");
}

TEST(Stream, ShortReadLeavesRemainder) {
  auto s = MakeLoopback();
  ASSERT_TRUE(s->Write("abcdef").ok());
  uint8_t buf[3];
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "abc");
  n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "def");
}

TEST(Stream, LargeWriteSplitsAt32K) {
  // "A write of less than 32K is guaranteed to be contained by a single
  // block"; larger writes split, only the last block delimited.
  auto s = MakeLoopback();
  Bytes big(Stream::kMaxBlock + 100, 0x5a);
  ASSERT_TRUE(s->Write(big.data(), big.size()).ok());
  auto msg = s->ReadMessage();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->size(), big.size());  // message boundary = whole write
}

TEST(Stream, ControlBlocksReachModules) {
  LoopbackDevice* dev = nullptr;
  auto s = MakeLoopback(&dev);
  ASSERT_TRUE(s->WriteControl("connect 2048").ok());
  ASSERT_EQ(dev->controls.size(), 1u);
  EXPECT_EQ(dev->controls[0], "connect 2048");
}

TEST(Stream, HangupControlGivesEof) {
  auto s = MakeLoopback();
  ASSERT_TRUE(s->WriteControl("hangup").ok());
  uint8_t buf[4];
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_FALSE(s->Write("after").ok());
}

// A module that upcases data moving downstream — exercises push/pop.
class UpcaseModule : public StreamModule {
 public:
  std::string_view name() const override { return "upcase"; }
  void DownPut(BlockPtr b) override {
    if (b->type == BlockType::kData) {
      for (auto& c : b->data) {
        if (c >= 'a' && c <= 'z') {
          c = static_cast<uint8_t>(c - 'a' + 'A');
        }
      }
    }
    PutDown(std::move(b));
  }
};

TEST(Stream, PushPopModule) {
  static bool registered = [] {
    ModuleRegistry::Instance().Register("upcase",
                                        [] { return std::make_unique<UpcaseModule>(); });
    return true;
  }();
  (void)registered;

  auto s = MakeLoopback();
  ASSERT_TRUE(s->WriteControl("push upcase").ok());
  EXPECT_EQ(s->ModuleCount(), 1u);
  ASSERT_TRUE(s->Write("abc").ok());
  uint8_t buf[8];
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "ABC");

  ASSERT_TRUE(s->WriteControl("pop").ok());
  EXPECT_EQ(s->ModuleCount(), 0u);
  ASSERT_TRUE(s->Write("abc").ok());
  n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "abc");
}

TEST(Stream, PushUnknownModuleFails) {
  auto s = MakeLoopback();
  EXPECT_FALSE(s->WriteControl("push nosuchmodule").ok());
  EXPECT_FALSE(s->Pop().ok());
}

TEST(Stream, ReaderBlocksUntilData) {
  auto s = MakeLoopback();
  std::atomic<bool> got{false};
  std::thread reader([&] {
    uint8_t buf[8];
    auto n = s->Read(buf, sizeof buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 4u);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ASSERT_TRUE(s->Write("data").ok());
  reader.join();
  EXPECT_TRUE(got.load());
}

TEST(Stream, DeliverUpFromDeviceSide) {
  auto s = MakeLoopback();
  s->DeliverUp(MakeDataBlock("from-the-wire", /*delim=*/true));
  auto msg = s->ReadMessage();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(ToString(*msg), "from-the-wire");
}

// --- the alarm on blocked reads ------------------------------------------

using AlarmClock = ReadAlarm::Clock;
constexpr auto kAlarm = std::chrono::milliseconds(30);

TEST(ReadAlarm, NestedAlarmsKeepTheEarlierDeadline) {
  const auto now = AlarmClock::now();
  EXPECT_EQ(ReadAlarm::Deadline(), AlarmClock::time_point::max());
  {
    ReadAlarm outer(now + std::chrono::seconds(10));
    {
      ReadAlarm inner(now + std::chrono::hours(1));
      EXPECT_EQ(ReadAlarm::Deadline(), now + std::chrono::seconds(10));
      ReadAlarm innermost(now + std::chrono::milliseconds(5));
      EXPECT_EQ(ReadAlarm::Deadline(), now + std::chrono::milliseconds(5));
    }
    EXPECT_EQ(ReadAlarm::Deadline(), now + std::chrono::seconds(10));
  }
  EXPECT_EQ(ReadAlarm::Deadline(), AlarmClock::time_point::max());
}

TEST(ReadAlarm, AlarmOnAnotherThreadLeavesThisOneBlocking) {
  ReadAlarm alarm(AlarmClock::now());
  AlarmClock::time_point seen{};
  std::thread other([&] { seen = ReadAlarm::Deadline(); });
  other.join();
  EXPECT_EQ(seen, AlarmClock::time_point::max());
}

TEST(Stream, ReadUnderAlarmIsInterruptedThenReadsLaterData) {
  auto s = MakeLoopback();
  uint8_t buf[8];
  const auto start = AlarmClock::now();
  {
    ReadAlarm alarm(start + kAlarm);
    auto n = s->Read(buf, sizeof buf);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error().message(), kErrInterrupted);
    EXPECT_GE(AlarmClock::now() - start, kAlarm);
  }
  // The interrupted read took nothing: data arriving later reads whole.
  ASSERT_TRUE(s->Write("late").ok());
  auto n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, buf + *n), "late");

  // A hangup still reads as EOF, even under an alarm that has rung.
  ASSERT_TRUE(s->WriteControl("hangup").ok());
  ReadAlarm rung(AlarmClock::now());
  n = s->Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(Stream, ReadMessageUnderAlarmKeepsAPartialMessage) {
  auto s = MakeLoopback();
  s->DeliverUp(MakeDataBlock("first half, "));
  {
    ReadAlarm alarm(AlarmClock::now() + kAlarm);
    auto msg = s->ReadMessage();
    ASSERT_FALSE(msg.ok());
    EXPECT_EQ(msg.error().message(), kErrInterrupted);
  }
  s->DeliverUp(MakeDataBlock("second half", /*delim=*/true));
  auto msg = s->ReadMessage();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(ToString(*msg), "first half, second half");
}

}  // namespace
}  // namespace plan9
