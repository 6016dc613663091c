// Timer service.
//
// Protocol retransmission (§2.4: "a helper kernel process awakens
// periodically to perform any necessary TCP retransmissions") and simulated
// media delivery both need one-shot timers.  Callbacks run one at a time,
// with no lock held, on the wheel's executor: its kproc, or a thread closing
// a delivery scope (RunHere).  Cancel removes a callback that has not yet
// been taken to run; one already taken runs anyway.
//
// Delivery scopes follow §2.4's streams, where a put routine runs on the
// writing process and a helper kproc is kept only where a module has to
// wait: a thread about to wait for the answer to what it writes delivers its
// own zero-delay frames instead of waking the kproc to do it.
#ifndef SRC_TASK_TIMERS_H_
#define SRC_TASK_TIMERS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

using TimerId = uint64_t;
inline constexpr TimerId kNoTimer = 0;

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  // The longest the kproc sleeps without re-reading the queue.  Below every
  // protocol's minimum retransmit timeout (IL 20 ms, TCP 50 ms, URP 100 ms),
  // so a re-arm behind a far head (IL's 2 s keep-alive) needs no wake-up.
  static constexpr Clock::duration kTick = std::chrono::milliseconds(10);

  // The most callbacks a closing scope runs before it hands the rest to the
  // kproc: enough for a frame and the acknowledgement it draws, never a
  // stream of another thread's frames.
  static constexpr size_t kScopeRuns = 8;

  TimerWheel();
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Run `fn` on the wheel's executor after `delay`.  Callbacks must not
  // block for long: they typically put a block on a queue or wake a Rendez.
  // Wakes the kproc only for a deadline earlier than the one it sleeps
  // until (at most one kTick ahead); a zero-delay entry made inside a
  // delivery scope on this wheel wakes nothing and waits for the scope.
  TimerId Schedule(Clock::duration delay, std::function<void()> fn);

  // Best-effort cancel; returns true if the callback was removed before it
  // ran.  The callback may be executing concurrently when this returns false.
  bool Cancel(TimerId id);

  // Number of pending timers (tests).
  size_t Pending();

  // Wait until no executor is running callbacks.  Teardown protocol: cancel
  // your timers / detach your media callbacks, then Drain(); afterwards no
  // callback scheduled before the Drain can still be touching your state.
  // Must not be called from a timer callback: the executor would wait on
  // itself, so that aborts.
  void Drain() MAY_BLOCK;

  // Process-wide default instance used by the simulator and protocols.
  static TimerWheel& Default();

  // A delivery scope.  While one is open on a thread, that thread's
  // zero-delay entries on `wheel` wait instead of waking the kproc; when the
  // outermost scope closes, the thread runs the due callbacks itself (at
  // most kScopeRuns, handing the rest to the kproc) unless another executor
  // is running, which then picks them up.  Open one only where the thread
  // is about to wait for the answer its write draws (DESIGN.md §7), and
  // close it holding no QLock: the callbacks take conversation locks, and
  // under lockcheck a close under a QLock aborts.
  class RunHere {
   public:
    explicit RunHere(TimerWheel& wheel);
    ~RunHere();
    RunHere(const RunHere&) = delete;
    RunHere& operator=(const RunHere&) = delete;

   private:
    friend class TimerWheel;
    TimerWheel& wheel_;
    RunHere* outer_;         // the scope this one nests in, if any
    bool deferred_ = false;  // a zero-delay entry waits for this scope
  };

 private:
  using Due = std::vector<std::function<void()>>;

  void Loop();
  // Whether an entry due at `when` must wake the sleeping kproc.
  bool WakeForLocked(Clock::time_point when) REQUIRES(lock_);
  // Take up to `max` entries due by `now` off the queue, in deadline order.
  Due TakeDueLocked(Clock::time_point now, size_t max) REQUIRES(lock_);
  // Take the executor role, unless a thread holds it, and run due callbacks
  // batch by batch until none is due or `max` have run.
  void RunDue(size_t max);

  // Leaf lock of the hierarchy (DESIGN.md): conversations call
  // Schedule/Cancel holding their own lock, and callbacks run with this lock
  // *dropped* so they may take conversation locks in turn.
  QLock lock_{"timer"};
  Rendez wake_;
  Rendez drained_;
  std::multimap<Clock::time_point, std::pair<TimerId, std::function<void()>>> queue_
      GUARDED_BY(lock_);
  std::map<TimerId, Clock::time_point> index_ GUARDED_BY(lock_);
  TimerId next_id_ GUARDED_BY(lock_) = 1;
  bool stop_ GUARDED_BY(lock_) = false;
  // The executor role: the one thread running callbacks, the kproc or a
  // closing scope's; no thread while none runs.  One at a time, so callbacks
  // stay serialized.
  std::thread::id executor_ GUARDED_BY(lock_);
  // When the sleeping kproc next re-reads the queue; min() once it is awake
  // or woken (it re-reads before sleeping again, so nothing needs to wake
  // it).
  Clock::time_point sleep_until_ GUARDED_BY(lock_) = Clock::time_point::min();
  std::thread thread_;
};

}  // namespace plan9

#endif  // SRC_TASK_TIMERS_H_
