// Service — a long-running user-level server (listener, exportfs, DNS...).
//
// Owns the kprocs doing the work plus a stop function that unblocks them
// (typically by closing the announcement ctl fd, which wakes the blocked
// listen).  Destruction stops and joins.  A kproc that has finished is
// joined by the next Spawn, so a listener forking one kproc per call keeps
// only its live calls' stacks.
#ifndef SRC_SVC_SERVICE_H_
#define SRC_SVC_SERVICE_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/task/kproc.h"
#include "src/task/qlock.h"

namespace plan9 {

class Service {
 public:
  explicit Service(std::string name) : name_(std::move(name)) {}
  ~Service() { Stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const std::string& name() const { return name_; }

  void Spawn(std::function<void()> fn) MAY_BLOCK {
    std::list<Slot> finished;
    {
      QLockGuard guard(lock_);
      for (auto it = kprocs_.begin(); it != kprocs_.end();) {
        auto next = std::next(it);
        if (it->done) {
          finished.splice(finished.end(), kprocs_, it);
        }
        it = next;
      }
      // List nodes never move, so the kproc can mark its own slot.
      auto slot = kprocs_.emplace(kprocs_.end());
      slot->kproc = Kproc(name_ + "." + std::to_string(spawned_++),
                          [this, slot, fn = std::move(fn)] {
                            fn();
                            QLockGuard done_guard(lock_);
                            slot->done = true;
                          });
    }
    for (auto& s : finished) {
      s.kproc.Join();  // already returned from fn: a short wait at most
    }
  }

  void OnStop(std::function<void()> fn) {
    QLockGuard guard(lock_);
    stop_fns_.push_back(std::move(fn));
  }

  void Stop() MAY_BLOCK {
    std::vector<std::function<void()>> fns;
    {
      QLockGuard guard(lock_);
      fns.swap(stop_fns_);
    }
    for (auto& fn : fns) {
      fn();
    }
    // A kproc still running may Spawn another (a listener taking one last
    // call): keep joining until none is left.
    for (;;) {
      std::list<Slot> procs;
      {
        QLockGuard guard(lock_);
        procs.swap(kprocs_);
      }
      if (procs.empty()) {
        return;
      }
      for (auto& s : procs) {
        s.kproc.Join();
      }
    }
  }

 private:
  struct Slot {
    Kproc kproc;
    bool done = false;  // guarded by lock_: fn has returned
  };

  std::string name_;
  QLock lock_{"svc.service"};
  std::list<Slot> kprocs_ GUARDED_BY(lock_);
  uint64_t spawned_ GUARDED_BY(lock_) = 0;
  std::vector<std::function<void()>> stop_fns_ GUARDED_BY(lock_);
};

}  // namespace plan9

#endif  // SRC_SVC_SERVICE_H_
