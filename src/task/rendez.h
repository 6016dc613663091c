// Rendez — Plan 9 sleep/wakeup.
//
// A kernel process sleeps on a Rendez until a condition holds; interrupt
// handlers and other kprocs call WakeOne or Wakeup after changing the
// condition.  The caller holds the QLock protecting the condition state,
// exactly as in the Plan 9 kernel's sleep(r, cond, arg) idiom — and the
// thread-safety analysis enforces it: Sleep REQUIRES the lock.  The lock is
// released while sleeping and re-held on return.
//
// Sleep predicates run with the lock held, but Clang analyzes a lambda body
// as its own function; annotate predicates that read guarded state:
//
//   can_read_.Sleep(lock_, [&]() REQUIRES(lock_) { return !blocks_.empty(); });
#ifndef SRC_TASK_RENDEZ_H_
#define SRC_TASK_RENDEZ_H_

#include <chrono>
#include <condition_variable>

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"

namespace plan9 {

class Rendez {
 public:
  Rendez() = default;
  Rendez(const Rendez&) = delete;
  Rendez& operator=(const Rendez&) = delete;

  // Every sleep entry point is MAY_BLOCK — the transitive root of the
  // blocking-under-lock check (tools/lint/plan9lint).  Under
  // PLAN9NET_LOCKCHECK each sleep also asserts at run time, *before*
  // parking, that the thread holds no lock other than `l` itself unless
  // that lock's class is marked sleepable (lockcheck::OnBlock) — so the
  // check fires deterministically even when the predicate is already true.
  // A sleep that is about to wait fires the thread's BlockHook (qlock.h)
  // first, under `l`; one whose predicate already holds fires nothing.
#if defined(PLAN9NET_LOCKCHECK)
  // Block until pred() is true.  `l` must be the held QLock protecting the
  // state pred reads.
  template <typename Pred>
  void Sleep(QLock& l, Pred pred, P9_LOCK_SITE) REQUIRES(l) MAY_BLOCK {
    lockcheck::OnBlock(&l, p9_site.file_name(), static_cast<int>(p9_site.line()));
    while (!pred()) {
      BlockHook::Fire();
      cv_.wait(l);
    }
  }

  // Block until woken (spurious wakeups possible; callers re-check state).
  void Sleep(QLock& l, P9_LOCK_SITE) REQUIRES(l) MAY_BLOCK {
    lockcheck::OnBlock(&l, p9_site.file_name(), static_cast<int>(p9_site.line()));
    BlockHook::Fire();
    cv_.wait(l);
  }

  // As Sleep, with a timeout.  Returns false if it expired with pred false.
  template <typename Pred>
  bool SleepFor(QLock& l, std::chrono::nanoseconds timeout, Pred pred,
                P9_LOCK_SITE) REQUIRES(l) MAY_BLOCK {
    lockcheck::OnBlock(&l, p9_site.file_name(), static_cast<int>(p9_site.line()));
    if (BlockHook::Armed() && timeout > std::chrono::nanoseconds::zero() && !pred()) {
      BlockHook::Fire();
    }
    return cv_.wait_for(l, timeout, pred);
  }

  // Block until woken or `deadline` passes (callers re-check state).
  template <typename Clock, typename Duration>
  void SleepUntil(QLock& l, std::chrono::time_point<Clock, Duration> deadline,
                  P9_LOCK_SITE) REQUIRES(l) MAY_BLOCK {
    lockcheck::OnBlock(&l, p9_site.file_name(), static_cast<int>(p9_site.line()));
    BlockHook::Fire();
    cv_.wait_until(l, deadline);
  }
#else
  // Block until pred() is true.  `l` must be the held QLock protecting the
  // state pred reads.
  template <typename Pred>
  void Sleep(QLock& l, Pred pred) REQUIRES(l) MAY_BLOCK {
    while (!pred()) {
      BlockHook::Fire();
      cv_.wait(l);
    }
  }

  // Block until woken (spurious wakeups possible; callers re-check state).
  void Sleep(QLock& l) REQUIRES(l) MAY_BLOCK {
    BlockHook::Fire();
    cv_.wait(l);
  }

  // As Sleep, with a timeout.  Returns false if it expired with pred false.
  template <typename Pred>
  bool SleepFor(QLock& l, std::chrono::nanoseconds timeout, Pred pred)
      REQUIRES(l) MAY_BLOCK {
    if (BlockHook::Armed() && timeout > std::chrono::nanoseconds::zero() && !pred()) {
      BlockHook::Fire();
    }
    return cv_.wait_for(l, timeout, pred);
  }

  // Block until woken or `deadline` passes (callers re-check state).
  template <typename Clock, typename Duration>
  void SleepUntil(QLock& l, std::chrono::time_point<Clock, Duration> deadline)
      REQUIRES(l) MAY_BLOCK {
    BlockHook::Fire();
    cv_.wait_until(l, deadline);
  }
#endif

  // Wake one sleeper, as Plan 9's wakeup does.  Only for hand-offs that any
  // single sleeper can take: every sleeper waits on the same condition, and
  // one of them acting on it is all the change calls for (a worker taking
  // the 9P reader role, the timer kproc seeing a deadline before its next
  // look at the queue).
  void WakeOne() { cv_.notify_one(); }

  // Wake all sleepers to re-evaluate their condition: for shutdown, and for
  // a Rendez whose sleepers wait on different conditions, where waking one
  // could pick a sleeper whose condition is still false (harmless for the
  // others: spurious wakeups re-check the predicate).
  void Wakeup() { cv_.notify_all(); }

 private:
  // _any: waits on the QLock itself, so acquisition tracking (lockcheck) and
  // the capability model see the release/re-acquire around the sleep.
  std::condition_variable_any cv_;
};

}  // namespace plan9

#endif  // SRC_TASK_RENDEZ_H_
