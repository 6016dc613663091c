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

// A BlockHook runs once, the first time its thread is about to park: a sleep
// that waits or a lock another thread holds.
void CountRun(void* runs) { ++*static_cast<int*>(runs); }

TEST(BlockHook, FiresOnceOnASleepThatWaits) {
  QLock lock;
  Rendez never;
  int runs = 0;
  BlockHook hook(&CountRun, &runs);
  QLockGuard guard(lock);
  for (int i = 0; i < 2; i++) {
    EXPECT_FALSE(never.SleepFor(lock, std::chrono::milliseconds(1), [] { return false; }));
  }
  EXPECT_TRUE(hook.fired());
  EXPECT_EQ(runs, 1);
}

TEST(BlockHook, SleepWhosePredicateHoldsFiresNothing) {
  QLock lock;
  Rendez r;
  int runs = 0;
  BlockHook hook(&CountRun, &runs);
  QLockGuard guard(lock);
  r.Sleep(lock, [] { return true; });
  EXPECT_TRUE(r.SleepFor(lock, std::chrono::seconds(10), [] { return true; }));
  EXPECT_FALSE(hook.fired());
  EXPECT_EQ(runs, 0);
}

TEST(BlockHook, UncontendedLockFiresNothing) {
  QLock lock;
  int runs = 0;
  BlockHook hook(&CountRun, &runs);
  for (int i = 0; i < 2; i++) {
    QLockGuard guard(lock);
  }
  EXPECT_FALSE(hook.fired());
  EXPECT_EQ(runs, 0);
}

// The holder keeps `held` until the hook has run on the thread waiting for
// it, so the hook must run before that thread parks.
struct Contention {
  static void Run(void* self) {
    auto* c = static_cast<Contention*>(self);
    {
      QLockGuard guard(c->lock);
      c->runs++;
    }
    c->changed.Wakeup();
  }

  // Sleepable, as stream.read is: the holder sleeps below while holding it.
  QLock held{"stream.read", kSleepableClass};
  QLock lock;
  Rendez changed;
  bool holding GUARDED_BY(lock) = false;
  int runs GUARDED_BY(lock) = 0;
};

TEST(BlockHook, FiresOnceOnAContendedLock) {
  Contention c;
  std::thread holder([&c] {
    QLockGuard hold(c.held);
    QLockGuard guard(c.lock);
    c.holding = true;
    c.changed.Wakeup();
    c.changed.SleepFor(c.lock, std::chrono::seconds(10),
                       [&c]() REQUIRES(c.lock) { return c.runs > 0; });
  });
  {
    QLockGuard guard(c.lock);
    ASSERT_TRUE(c.changed.SleepFor(c.lock, std::chrono::seconds(10),
                                   [&c]() REQUIRES(c.lock) { return c.holding; }));
  }
  {
    BlockHook hook(&Contention::Run, &c);
    QLockGuard wait(c.held);  // fires, then waits for the holder to let go
    EXPECT_TRUE(hook.fired());
  }
  holder.join();
  QLockGuard guard(c.lock);
  EXPECT_EQ(c.runs, 1);
}

// Schedule wakes the timer kproc only for a deadline before its next look,
// and a delivery scope runs its thread's zero-delay entries itself.  These
// cover both on a private wheel.
class TimerWheelTest : public ::testing::Test {
 protected:
  using Clock = TimerWheel::Clock;

  // Schedules a timer that records its firing order and thread.
  void Arm(std::chrono::milliseconds delay, int id) {
    wheel_.Schedule(delay, [this, id] {
      {
        QLockGuard guard(lock_);
        fired_.push_back(id);
        fired_on_.push_back(std::this_thread::get_id());
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
  // The thread timer `id` fired on; no thread if it has not fired.
  std::thread::id FiredOn(int id) {
    QLockGuard guard(lock_);
    for (size_t i = 0; i < fired_.size(); i++) {
      if (fired_[i] == id) {
        return fired_on_[i];
      }
    }
    return std::thread::id();
  }
  // Lets the kproc run an entry and park again: it then sleeps for most of a
  // tick, in which only the test runs callbacks.
  void QuietKproc() {
    size_t n;
    {
      QLockGuard guard(lock_);
      n = fired_.size();
    }
    Arm(std::chrono::milliseconds(0), -1);
    ASSERT_TRUE(WaitFired(n + 1, std::chrono::seconds(5)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Schedules a zero-delay callback that blocks until OpenGate (a test latch;
  // real callbacks must not block).
  void ArmGate() {
    wheel_.Schedule(Clock::duration::zero(), [this] {
      QLockGuard guard(lock_);
      gate_on_ = std::this_thread::get_id();
      changed_.Wakeup();
      changed_.Sleep(lock_, [&]() REQUIRES(lock_) { return gate_open_; });
      gate_left_ = true;
    });
  }
  // The thread the gate callback runs on, once it has entered.
  std::thread::id WaitGateEntered() {
    QLockGuard guard(lock_);
    changed_.SleepFor(lock_, std::chrono::seconds(5), [&]() REQUIRES(lock_) {
      return gate_on_ != std::thread::id();
    });
    return gate_on_;
  }
  void OpenGate() {
    {
      QLockGuard guard(lock_);
      gate_open_ = true;
    }
    changed_.Wakeup();
  }

  QLock lock_;
  Rendez changed_;
  std::vector<int> fired_ GUARDED_BY(lock_);
  std::vector<std::thread::id> fired_on_ GUARDED_BY(lock_);
  std::thread::id gate_on_ GUARDED_BY(lock_);
  bool gate_open_ GUARDED_BY(lock_) = false;
  bool gate_left_ GUARDED_BY(lock_) = false;
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

TEST_F(TimerWheelTest, NestedScopesDeliverOnTheirThreadAsTheOutermostCloses) {
  QuietKproc();
  {
    TimerWheel::RunHere outer(wheel_);
    {
      TimerWheel::RunHere inner(wheel_);
      Arm(std::chrono::milliseconds(0), 1);
    }
    EXPECT_EQ(FiredOn(1), std::thread::id()) << "ran as the inner scope closed";
  }
  // The closing scope ran it before returning, on this thread.
  EXPECT_EQ(FiredOn(1), std::this_thread::get_id());
}

TEST_F(TimerWheelTest, ScopeClosingWhileTheKprocRunsLeavesItsEntryToTheKproc) {
  ArmGate();  // wakes the kproc, which blocks in the gate
  std::thread::id kproc = WaitGateEntered();
  ASSERT_NE(kproc, std::thread::id());
  ASSERT_NE(kproc, std::this_thread::get_id());
  {
    TimerWheel::RunHere scope(wheel_);
    Arm(std::chrono::milliseconds(0), 1);
  }
  // Waiting for the role would hang here: the gate opens only below.
  EXPECT_EQ(FiredOn(1), std::thread::id());
  OpenGate();
  ASSERT_TRUE(WaitFired(1, std::chrono::seconds(5)));
  EXPECT_EQ(FiredOn(1), kproc);
}

TEST_F(TimerWheelTest, DrainReturnsOnlyAfterAScopesRunEnds) {
  std::thread runner([this] {
    QuietKproc();
    TimerWheel::RunHere scope(wheel_);
    ArmGate();
  });  // the runner's closing scope blocks in the gate
  EXPECT_EQ(WaitGateEntered(), runner.get_id());
  std::atomic<bool> drained{false};
  bool left_before_drained = false;
  std::thread drainer([&] {
    wheel_.Drain();
    drained = true;
    QLockGuard guard(lock_);
    left_before_drained = gate_left_;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  OpenGate();
  drainer.join();
  runner.join();
  EXPECT_TRUE(left_before_drained);
}

TEST_F(TimerWheelTest, EntryArmedBehindTheKprocsNextLookFiresOnTime) {
  TimerId far = wheel_.Schedule(std::chrono::seconds(30), [] {});
  // Let the kproc park toward the far deadline (at most a tick ahead).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = Clock::now();
  Arm(std::chrono::milliseconds(30), 1);
  ASSERT_TRUE(WaitFired(1, std::chrono::seconds(5)));
  auto took = Clock::now() - start;
  EXPECT_GE(took, std::chrono::milliseconds(30));
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_TRUE(wheel_.Cancel(far));
}

// A callback's executor waiting for itself would hang; it aborts instead.
// Here the closing scope runs the callback (or, had the kproc taken it, the
// kproc does, and the wheel's destructor waits for that abort).
TEST(TimerWheelDeathTest, DrainFromACallbackAborts) {
  EXPECT_DEATH(
      {
        TimerWheel wheel;
        TimerWheel::RunHere scope(wheel);
        wheel.Schedule(TimerWheel::Clock::duration::zero(), [&wheel] { wheel.Drain(); });
      },
      "Drain must not be called from a timer callback");
}

#if defined(PLAN9NET_LOCKCHECK)
TEST(TimerWheelDeathTest, ClosingAScopeUnderAQLockAborts) {
  QLock lock{"test.scope.held"};
  EXPECT_DEATH(
      {
        TimerWheel wheel;
        QLockGuard guard(lock);
        TimerWheel::RunHere scope(wheel);  // closes first, under the lock
      },
      "delivery scope closed under qlock");
}
#endif

}  // namespace
}  // namespace plan9
