#include "src/task/kproc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/task/qlock.h"
#include "src/task/rendez.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {

TEST(Kproc, RunsAndJoins) {
  std::atomic<bool> ran{false};
  {
    Kproc k("test.runner", [&] { ran = true; });
    k.Join();
  }
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(Kproc::LiveCount(), 0);
}

TEST(Kproc, LiveCountTracksRunningProcs) {
  QLock lock;
  Rendez go;
  bool release = false;

  Kproc k("test.blocked", [&] {
    QLockGuard guard(lock);
    go.Sleep(lock, [&]() REQUIRES(lock) { return release; });
  });
  // The kproc is alive until released.
  EXPECT_GE(Kproc::LiveCount(), 1);
  {
    QLockGuard guard(lock);
    release = true;
  }
  go.Wakeup();
  k.Join();
  EXPECT_EQ(Kproc::LiveCount(), 0);
}

TEST(Kproc, MoveAssignJoinsThePreviousProc) {
  std::atomic<int> done{0};
  Kproc a("test.first", [&] { done.fetch_add(1); });
  // Assigning over a running kproc must join it first, not abandon it.
  a = Kproc("test.second", [&] { done.fetch_add(10); });
  EXPECT_GE(done.load(), 1);  // first joined before being replaced
  a.Join();
  EXPECT_EQ(done.load(), 11);
  EXPECT_EQ(a.name(), "test.second");
}

TEST(Kproc, SelfMoveAssignIsSafe) {
  std::atomic<bool> ran{false};
  Kproc k("test.selfmove", [&] {
    // Hold the thread alive briefly so the self-move happens while joinable.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ran = true;
  });
  Kproc& alias = k;
  k = std::move(alias);  // must not join-and-clobber itself
  EXPECT_EQ(k.name(), "test.selfmove");
  EXPECT_TRUE(k.joinable());
  k.Join();
  EXPECT_TRUE(ran.load());
}

TEST(Kproc, DefaultConstructedIsInert) {
  Kproc k;
  EXPECT_FALSE(k.joinable());
  k.Join();  // no-op
}

// Schedule wakes the timer kproc only for a new earliest deadline.  These
// cover both sides of that rule on a private wheel.
class TimerWheelTest : public ::testing::Test {
 protected:
  // Schedules a timer that records its firing order.
  void Arm(std::chrono::milliseconds delay, int id) {
    wheel_.Schedule(delay, [this, id] {
      {
        QLockGuard guard(lock_);
        fired_.push_back(id);
      }
      changed_.Wakeup();
    });
  }
  // True once `n` timers have fired, waiting at most `limit`.
  bool WaitFired(size_t n, std::chrono::milliseconds limit) {
    QLockGuard guard(lock_);
    return changed_.SleepFor(lock_, limit,
                             [&]() REQUIRES(lock_) { return fired_.size() >= n; });
  }

  QLock lock_;
  Rendez changed_;
  std::vector<int> fired_ GUARDED_BY(lock_);
  TimerWheel wheel_;  // last: its kproc stops before the state above dies
};

TEST_F(TimerWheelTest, EarlierEntryWakesKprocSleepingOnFarDeadline) {
  TimerId far = wheel_.Schedule(std::chrono::seconds(30), [] {});
  // Let the kproc park on the far deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = TimerWheel::Clock::now();
  Arm(std::chrono::milliseconds(10), 1);
  EXPECT_TRUE(WaitFired(1, std::chrono::seconds(5)));
  EXPECT_LT(TimerWheel::Clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(wheel_.Cancel(far));
}

TEST_F(TimerWheelTest, LaterEntryFiresAfterTheHeadWithoutAWake) {
  Arm(std::chrono::milliseconds(40), 2);
  Arm(std::chrono::milliseconds(20), 1);  // new head: wakes the kproc
  Arm(std::chrono::milliseconds(60), 3);  // behind the head: no wake
  ASSERT_TRUE(WaitFired(3, std::chrono::seconds(5)));
  QLockGuard guard(lock_);
  EXPECT_EQ(fired_, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace plan9
