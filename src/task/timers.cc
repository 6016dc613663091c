#include "src/task/timers.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace plan9 {
namespace {

// The innermost delivery scope open on this thread.
thread_local TimerWheel::RunHere* t_scope = nullptr;

}  // namespace

TimerWheel::TimerWheel() : thread_([this] { Loop(); }) {}

TimerWheel::~TimerWheel() {
  {
    QLockGuard guard(lock_);
    stop_ = true;
  }
  wake_.Wakeup();
  thread_.join();
}

TimerId TimerWheel::Schedule(Clock::duration delay, std::function<void()> fn) {
  RunHere* scope = t_scope;
  bool deferred = delay <= Clock::duration::zero() && scope != nullptr &&
                  &scope->wheel_ == this;
  if (deferred) {
    scope->deferred_ = true;
  }
  TimerId id;
  bool wake;
  {
    QLockGuard guard(lock_);
    id = next_id_++;
    Clock::time_point when = Clock::now() + delay;
    queue_.emplace(when, std::make_pair(id, std::move(fn)));
    index_.emplace(id, when);
    // Only a deadline before the sleeping kproc's next look needs a wake: an
    // executor re-reads the queue before it lets go of the role.
    wake = !deferred && executor_ == std::thread::id() && WakeForLocked(when);
  }
  if (wake) {
    wake_.WakeOne();
  }
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  QLockGuard guard(lock_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    return false;
  }
  auto range = queue_.equal_range(it->second);
  for (auto q = range.first; q != range.second; ++q) {
    if (q->second.first == id) {
      queue_.erase(q);
      break;
    }
  }
  index_.erase(it);
  return true;
}

size_t TimerWheel::Pending() {
  QLockGuard guard(lock_);
  return queue_.size();
}

void TimerWheel::Drain() {
  QLockGuard guard(lock_);
  if (executor_ == std::this_thread::get_id()) {
    std::fprintf(stderr,
                 "plan9net: TimerWheel::Drain must not be called from a timer "
                 "callback: the thread running it would wait for itself "
                 "(src/task/timers.h)\n");
    std::fflush(stderr);
    std::abort();
  }
  drained_.Sleep(lock_, [&]() REQUIRES(lock_) { return executor_ == std::thread::id(); });
}

bool TimerWheel::WakeForLocked(Clock::time_point when) {
  if (when >= sleep_until_) {
    return false;
  }
  // Once woken, the kproc re-reads the queue: the rest of a burst of frames
  // needs no wake of its own.
  sleep_until_ = Clock::time_point::min();
  return true;
}

TimerWheel::Due TimerWheel::TakeDueLocked(Clock::time_point now, size_t max) {
  Due due;
  while (due.size() < max && !queue_.empty() && queue_.begin()->first <= now) {
    auto it = queue_.begin();
    index_.erase(it->second.first);
    due.push_back(std::move(it->second.second));
    queue_.erase(it);
  }
  return due;
}

void TimerWheel::Loop() {
  QLockGuard guard(lock_);
  while (!stop_) {
    auto now = Clock::now();
    bool due = !queue_.empty() && queue_.begin()->first <= now;
    if (due && executor_ == std::thread::id()) {
      guard.Unlock();
      RunDue(SIZE_MAX);
      guard.Lock();
      continue;
    }
    // Sleep to the head's deadline, but for no more than a tick: Schedule
    // wakes the kproc only for a deadline before this one, so a far head
    // does not make every nearer re-arm a wake-up.  While a scope's thread
    // runs callbacks, it wakes the kproc as it lets go if anything is due.
    sleep_until_ = now + kTick;
    if (!due && !queue_.empty()) {
      sleep_until_ = std::min(sleep_until_, queue_.begin()->first);
    }
    wake_.SleepUntil(lock_, sleep_until_);
    sleep_until_ = Clock::time_point::min();
  }
}

void TimerWheel::RunDue(size_t max) {
  bool wake;
  {
    QLockGuard guard(lock_);
    if (executor_ != std::thread::id()) {
      return;  // the executor re-reads the queue before it lets go
    }
    executor_ = std::this_thread::get_id();
    // Collect what is due, then run it without the lock so callbacks can
    // schedule or cancel timers (and take conversation locks).  What they
    // make due meanwhile (the acknowledgement a frame draws) is the next
    // batch.
    for (size_t left = max; left > 0;) {
      Due batch = TakeDueLocked(Clock::now(), left);
      if (batch.empty()) {
        break;
      }
      left -= batch.size();
      guard.Unlock();
      for (auto& fn : batch) {
        fn();
      }
      batch.clear();  // what the closures hold dies off the lock
      guard.Lock();
    }
    executor_ = std::thread::id();
    drained_.Wakeup();
    // No entry is stranded: what is left and earlier than the sleeping
    // kproc's next look wakes it.
    wake = !queue_.empty() && WakeForLocked(queue_.begin()->first);
  }
  if (wake) {
    wake_.WakeOne();
  }
}

TimerWheel::RunHere::RunHere(TimerWheel& wheel) : wheel_(wheel), outer_(t_scope) {
  t_scope = this;
}

TimerWheel::RunHere::~RunHere() {
  if (outer_ != nullptr && &outer_->wheel_ == &wheel_) {
    outer_->deferred_ |= deferred_;  // the outermost scope on the wheel delivers
    t_scope = outer_;
    return;
  }
#if defined(PLAN9NET_LOCKCHECK)
  lockcheck::OnDeliver();
#endif
  // Still the thread's scope while it runs, so what the callbacks defer
  // waits for its next batch instead of waking the kproc.
  if (deferred_) {
    wheel_.RunDue(kScopeRuns);
  }
  t_scope = outer_;
}

TimerWheel& TimerWheel::Default() {
  static TimerWheel* wheel = new TimerWheel();  // leaked: outlives all users
  return *wheel;
}

}  // namespace plan9
