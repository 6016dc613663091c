// Lockdep-style QLock order checking (debug builds).
//
// The kernel code this repo models takes qlocks in a fixed hierarchy
// (stream read lock -> queue -> protocol conversation -> timer; see
// DESIGN.md "Locking discipline").  Nothing enforced that — a PR could
// introduce an ABBA deadlock that only fires under load.  When built with
// -DPLAN9NET_LOCKCHECK=ON (the default; tier-1 tests always run with it),
// every QLock acquisition is recorded:
//
//   * a per-thread stack of currently held locks, and
//   * a global order graph over *lock classes* (locks constructed with the
//     same class name, e.g. all "stream.queue" locks, share a class; locks
//     constructed without a name each get a private per-instance class).
//
// Acquiring lock B while holding lock A adds the edge class(A) -> class(B).
// If class(B) already reaches class(A) in the graph, the two orders can
// deadlock against each other; we abort immediately with the acquisition
// sites of both directions, instead of waiting for the interleaving that
// actually hangs.  Re-acquiring a lock the thread already holds
// (self-deadlock: std::mutex is non-recursive) also aborts.
//
// Known limitation, as in Linux lockdep without subclass annotations:
// nesting two locks of the same named class is not checked (the graph
// ignores self-edges), so classes must only be shared by locks that are
// never held together.
#ifndef SRC_TASK_LOCKCHECK_H_
#define SRC_TASK_LOCKCHECK_H_

#include <cstdint>

namespace plan9 {
namespace lockcheck {

using ClassId = uint32_t;

// Intern a named lock class; calls with equal names return the same id.
ClassId RegisterClass(const char* name);

// Allocate a fresh anonymous class for one lock instance.
ClassId RegisterInstanceClass();

// Drop a per-instance class when its lock is destroyed (purges its edges so
// the graph tracks only live anonymous locks).  Named classes are permanent.
void UnregisterInstanceClass(ClassId cls);

// Mark a class as *sleepable*: it is legal to hold a lock of this class
// while the owner blocks on an unrelated Rendez.  Only two classes qualify
// today — "stream.read" (a stream's reader serializes across Queue::Get)
// and "9p.server.write" (frame writes to the transport serialize across a
// flow-controlled Queue::Put).  Everything else must be dropped before
// sleeping; see DESIGN.md "Static analysis" for the matching static rule.
void SetClassSleepable(ClassId cls);

// Called by Rendez as a sleep *begins*, before the wait can park the thread
// (so the check fires deterministically even when the predicate is already
// true).  `lock` is the rendez's own QLock — the one Sleep atomically
// releases.  Aborts if the thread holds any other lock whose class is not
// sleepable: that lock would stay held for the full (unbounded) sleep,
// which is the blocking-under-lock deadlock class plan9lint checks
// statically via MAY_BLOCK.
void OnBlock(const void* lock, const char* file, int line);

// Called as a thread closes a delivery scope (TimerWheel::RunHere), before
// it may run timer callbacks.  Aborts if the thread holds any lock: the
// callbacks take conversation locks, and run with none held on the kproc,
// so a scope must close with none held too.
void OnDeliver();

// Called by QLock before blocking on the underlying mutex.  Aborts (after
// printing both acquisition sites) on self-deadlock or order inversion.
void OnAcquire(const void* lock, ClassId cls, const char* file, int line);

// A successful TryLock cannot block, so it adds no ordering edges, but the
// lock still lands on the held stack (later acquisitions order against it).
void OnTryAcquire(const void* lock, ClassId cls, const char* file, int line);

void OnRelease(const void* lock);

// Number of locks the calling thread currently holds (tests).
int HeldCount();

}  // namespace lockcheck
}  // namespace plan9

#endif  // SRC_TASK_LOCKCHECK_H_
