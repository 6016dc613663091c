// QLock — Plan 9's queueing blocking lock.
//
// Kernel code in the paper serializes stream and protocol state with qlocks
// and blocks on Rendez conditions while holding them.  We model a QLock as a
// mutex usable with Rendez (rendez.h); RAII guards are provided.
//
// A QLock is a Clang thread-safety *capability*: members declared
// GUARDED_BY(lock_) can only be touched while it is held, enforced by
// -Wthread-safety (see src/base/thread_annotations.h and DESIGN.md).
//
// Under PLAN9NET_LOCKCHECK every acquisition is also checked at run time
// against the global lock-order graph (src/task/lockcheck.h).  Locks that
// share an ordering rule are constructed with a class name, e.g.
// `QLock lock_{"stream.queue"};`; unnamed locks get a per-instance class.
#ifndef SRC_TASK_QLOCK_H_
#define SRC_TASK_QLOCK_H_

#include <mutex>

#include "src/base/thread_annotations.h"

#if defined(PLAN9NET_LOCKCHECK)
#include <source_location>

#include "src/task/lockcheck.h"
// Expands to a defaulted parameter capturing the caller's location, so
// lockcheck reports name acquisition *sites*, not qlock.h line numbers.
#define P9_LOCK_SITE std::source_location p9_site = std::source_location::current()
#endif

namespace plan9 {

// Constructor tag marking a lock class *sleepable*: legal to hold while the
// owner blocks on an unrelated Rendez.  Reserved for the two deliberate
// hold-across-sleep idioms (stream.read, 9p.server.write); plan9lint's
// static blocking-under-lock check reads the same list from its config.
struct SleepableClass {};
inline constexpr SleepableClass kSleepableClass{};

// A one-shot hook on its thread's first park.  While a BlockHook is in scope,
// the first time its thread is about to wait — a Rendez sleep whose
// predicate does not already hold, or QLock::Lock finding the lock held —
// runs fn(arg) once, on that thread, before it parks.  A 9P server worker
// arms one around each request it runs, so it passes the reader role on only
// when the request blocks (src/ninep/server.h).  The hook runs under
// whatever lock its thread sleeps on, and before lockcheck records a
// contended lock as held: it may take only a leaf lock that no hooked thread
// holds across a park (DESIGN.md §7).  One per thread; it does not nest.
class BlockHook {
 public:
  using Fn = void (*)(void* arg);
  BlockHook(Fn fn, void* arg) : fn_(fn), arg_(arg) { armed_ = this; }
  ~BlockHook() { armed_ = nullptr; }
  BlockHook(const BlockHook&) = delete;
  BlockHook& operator=(const BlockHook&) = delete;

  bool fired() const { return fired_; }

  // Whether the calling thread has a hook armed.  Threads without one lock
  // and sleep exactly as they would with no hooks in the program.
  static bool Armed() { return armed_ != nullptr; }

  // Runs and disarms the calling thread's hook, if one is armed.
  static void Fire() {
    BlockHook* hook = armed_;
    if (hook != nullptr) {
      armed_ = nullptr;
      hook->fired_ = true;
      hook->fn_(hook->arg_);
    }
  }

 private:
  static inline thread_local BlockHook* armed_ = nullptr;
  Fn fn_;
  void* arg_;
  bool fired_ = false;
};

class CAPABILITY("qlock") QLock {
 public:
#if defined(PLAN9NET_LOCKCHECK)
  QLock() : class_(lockcheck::RegisterInstanceClass()) {}
  explicit QLock(const char* lock_class)
      : class_(lockcheck::RegisterClass(lock_class)), named_class_(true) {}
  QLock(const char* lock_class, SleepableClass) : QLock(lock_class) {
    lockcheck::SetClassSleepable(class_);
  }
  ~QLock() {
    if (!named_class_) {
      lockcheck::UnregisterInstanceClass(class_);
    }
  }

  // A lock another thread holds fires the thread's BlockHook before
  // lockcheck records this lock as held, so the hook's own lock is not
  // taken under this one.
  void Lock(P9_LOCK_SITE) ACQUIRE() {
    const bool taken = BlockHook::Armed() && mutex_.try_lock();
    if (!taken) {
      BlockHook::Fire();
    }
    lockcheck::OnAcquire(this, class_, p9_site.file_name(),
                         static_cast<int>(p9_site.line()));
    if (!taken) {
      mutex_.lock();
    }
  }
  void Unlock() RELEASE() {
    lockcheck::OnRelease(this);
    mutex_.unlock();
  }
  bool TryLock(P9_LOCK_SITE) TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) {
      return false;
    }
    lockcheck::OnTryAcquire(this, class_, p9_site.file_name(),
                            static_cast<int>(p9_site.line()));
    return true;
  }

  // BasicLockable interface, so std::condition_variable_any (Rendez) can
  // release and re-acquire around a sleep; the lockcheck held stack stays
  // accurate while the sleeper does not hold the lock.
  void lock(P9_LOCK_SITE) ACQUIRE() { Lock(p9_site); }
  void unlock() RELEASE() { Unlock(); }
#else
  QLock() = default;
  explicit QLock(const char* /*lock_class*/) {}
  QLock(const char* /*lock_class*/, SleepableClass) {}

  void Lock() ACQUIRE() {
    if (BlockHook::Armed()) {
      if (mutex_.try_lock()) {
        return;
      }
      BlockHook::Fire();
    }
    mutex_.lock();
  }
  void Unlock() RELEASE() { mutex_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
#endif

  QLock(const QLock&) = delete;
  QLock& operator=(const QLock&) = delete;

 private:
  std::mutex mutex_;
#if defined(PLAN9NET_LOCKCHECK)
  lockcheck::ClassId class_;
  bool named_class_ = false;
#endif
};

// RAII holder, Plan 9's `qlock(...); ... qunlock(...)` pairing.  Relockable:
// Unlock()/Lock() drop and retake the qlock mid-scope (reply paths that must
// not hold the session lock across a transport write use this).
class SCOPED_CAPABILITY QLockGuard {
 public:
#if defined(PLAN9NET_LOCKCHECK)
  explicit QLockGuard(QLock& lock, P9_LOCK_SITE) ACQUIRE(lock) : lock_(lock) {
    lock_.Lock(p9_site);
  }
  void Lock(P9_LOCK_SITE) ACQUIRE() {
    lock_.Lock(p9_site);
    held_ = true;
  }
#else
  explicit QLockGuard(QLock& lock) ACQUIRE(lock) : lock_(lock) { lock_.Lock(); }
  void Lock() ACQUIRE() {
    lock_.Lock();
    held_ = true;
  }
#endif
  ~QLockGuard() RELEASE() {
    if (held_) {
      lock_.Unlock();
    }
  }
  void Unlock() RELEASE() {
    lock_.Unlock();
    held_ = false;
  }

  QLockGuard(const QLockGuard&) = delete;
  QLockGuard& operator=(const QLockGuard&) = delete;

 private:
  QLock& lock_;
  bool held_ = true;
};

}  // namespace plan9

#endif  // SRC_TASK_QLOCK_H_
