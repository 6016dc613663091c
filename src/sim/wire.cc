#include "src/sim/wire.h"

namespace plan9 {

// Shared state outlives the Wire so in-flight timer callbacks stay valid.
struct Wire::Shared {
  // A leaf lock: held only across bookkeeping; delivery callbacks run with
  // it dropped.
  QLock lock{"sim.wire"};
  Direction dirs[2] GUARDED_BY(lock);  // dirs[kA] = A->B, dirs[kB] = B->A
  bool cut GUARDED_BY(lock) = false;
};

Wire::Wire(LinkParams a_to_b, LinkParams b_to_a) : shared_(std::make_shared<Shared>()) {
  auto now = TimerWheel::Clock::now();
  shared_->dirs[kA].medium.Configure(a_to_b, a_to_b.seed, now);
  shared_->dirs[kB].medium.Configure(b_to_a, b_to_a.seed ^ 0x517cc1b727220a95ULL, now);
}

Wire::~Wire() { Cut(); }

void Wire::Attach(End end, RecvFn fn) {
  QLockGuard guard(shared_->lock);
  // The callback of end X receives traffic from the *other* end, i.e. the
  // direction indexed by the sender.
  shared_->dirs[end == kA ? kB : kA].recv = std::move(fn);
}

void Wire::Detach(End end) { Attach(end, nullptr); }

Status Wire::Send(End from, Bytes frame) {
  auto shared = shared_;
  MediumCore::Delivery d;
  {
    QLockGuard guard(shared->lock);
    if (shared->cut) {
      return Error(kErrHungup);
    }
    P9_ASSIGN_OR_RETURN(d, shared->dirs[from].medium.Transmit(frame.size(), &frame));
  }
  if (d.dropped) {
    return Status::Ok();  // silently lost on the wire
  }
  MediumCore::Schedule(d, [shared, from, frame = std::move(frame)]() mutable {
    RecvFn recv;
    {
      QLockGuard guard(shared->lock);
      if (shared->cut) {
        return;
      }
      Direction& dir = shared->dirs[from];
      dir.medium.stats.frames_delivered.Inc();
      dir.medium.stats.bytes_delivered.Inc(frame.size());
      recv = dir.recv;
    }
    if (recv) {
      recv(std::move(frame));
    }
  });
  return Status::Ok();
}

const MediaStats& Wire::stats(End from) {
  QLockGuard guard(shared_->lock);
  return shared_->dirs[from].medium.stats;
}

const FaultStats& Wire::fault_stats(End from) {
  QLockGuard guard(shared_->lock);
  return shared_->dirs[from].medium.faults.stats();
}

void Wire::SetPartitioned(bool down) {
  QLockGuard guard(shared_->lock);
  shared_->dirs[kA].medium.faults.SetDown(down);
  shared_->dirs[kB].medium.faults.SetDown(down);
}

void Wire::Cut() {
  QLockGuard guard(shared_->lock);
  shared_->cut = true;
  shared_->dirs[kA].recv = nullptr;
  shared_->dirs[kB].recv = nullptr;
}

}  // namespace plan9
