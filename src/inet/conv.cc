#include "src/inet/conv.h"

#include <algorithm>
#include <cstdlib>

#include "src/base/logging.h"

namespace plan9 {

ConvCore::ConvCore(NetProto* table, int index, const char* lock_class,
                   const char* module_name)
    : lock_(lock_class), table_(table), module_name_(module_name) {
  index_ = index;
}

ConvCore::~ConvCore() {
  QLockGuard guard(lock_);
  CancelTimerLocked();
}

std::unique_ptr<StreamModule> ConvCore::NewModule() {
  return std::make_unique<MessageModule>(this, module_name_);
}

void ConvCore::Reset() {
  QLockGuard guard(lock_);
  if (stream_ != nullptr) {
    // Protocol input runs on the timer wheel's executor (its kproc, or a
    // thread closing a delivery scope), which may still be inside the old
    // stream finishing the delivery its reader woke on: free the stream on
    // the executor, once that callback has returned.
    TimerWheel::Default().Schedule(TimerWheel::Clock::duration::zero(),
                                   [old = std::shared_ptr<Stream>(std::move(stream_))] {});
  }
  stream_ = std::make_unique<Stream>(NewModule());
  calls_.clear();
  closed_ = hangup_pending_ = hungup_ = released_ = false;
  err_.clear();
  ResetLocked();
}

Result<int> ConvCore::Listen() {
  QLockGuard guard(lock_);
  if (!AnnouncedLocked()) {
    return Error("not announced");
  }
  incoming_.Sleep(lock_, [&]() REQUIRES(lock_) {
    return !calls_.empty() || !AnnouncedLocked();
  });
  if (!AnnouncedLocked()) {
    return Error(kErrHungup);
  }
  int call = calls_.front();
  calls_.pop_front();
  return call;
}

void ConvCore::QueueCall(ConvCore* call) {
  bool queued;
  {
    QLockGuard guard(lock_);
    queued = AnnouncedLocked();
    if (queued) {
      calls_.push_back(call->index());
    }
  }
  if (!queued) {
    call->CloseUser();
    return;
  }
  incoming_.Wakeup();
}

void ConvCore::CloseUser() {
  Close();
  std::deque<int> orphans;
  {
    QLockGuard guard(lock_);
    released_ = true;
    orphans.swap(calls_);
  }
  Settle();
  // Close the calls nobody will ever Listen() for.
  for (int idx : orphans) {
    if (NetConv* c = table_->Conv(static_cast<size_t>(idx)); c != nullptr) {
      c->CloseUser();
    }
  }
}

void ConvCore::Abandon(const std::string& why) {
  QLockGuard guard(lock_);
  HangupLocked(why);
}

void ConvCore::Abort(const std::string& why) {
  {
    QLockGuard guard(lock_);
    dying_ = true;  // a racing TimerFire must not re-arm
    calls_.clear();
  }
  Abandon(why);
  {
    QLockGuard guard(lock_);
    CancelTimerLocked();
  }
  Settle();
}

void ConvCore::HangupLocked(std::string_view why) {
  if (closed_) {
    return;
  }
  closed_ = true;
  hangup_pending_ = true;
  if (err_.empty()) {
    err_ = why;
  }
  CancelTimerLocked();
}

void ConvCore::DeliverHangup() {
  stream_->Hangup();
  // Only now may the slot go to a new occupant: Reset replaces stream_,
  // which must not happen while the old stream is still taking the hangup.
  QLockGuard guard(lock_);
  hungup_ = true;
}

void ConvCore::Settle() {
  bool hangup;
  {
    QLockGuard guard(lock_);
    hangup = TakeHangupLocked();
  }
  if (hangup) {
    DeliverHangup();
  }
  ready_.Wakeup();
  window_.Wakeup();
  incoming_.Wakeup();
}

void ConvCore::ArmTimerLocked(std::chrono::microseconds delay) {
  if (dying_) {
    return;  // teardown in progress: a re-armed timer would fire on freed state
  }
  CancelTimerLocked();
  timer_ = TimerWheel::Default().Schedule(delay,
                                          [this, gen = timer_gen_] { TimerFire(gen); });
}

void ConvCore::CancelTimerLocked() {
  // A firing the wheel already collected cannot be cancelled; the new
  // generation makes it stale, so it leaves timer_ (the live timer) alone.
  timer_gen_++;
  if (timer_ != kNoTimer) {
    TimerWheel::Default().Cancel(timer_);
    timer_ = kNoTimer;
  }
}

void ConvCore::TimerFire(uint64_t gen) {
  {
    QLockGuard guard(lock_);
    if (gen != timer_gen_) {
      return;  // stale: re-armed or cancelled after the wheel collected it
    }
    timer_ = kNoTimer;
    TimerLocked();
  }
  Settle();
}

void MessageModule::DownPut(BlockPtr b) {
  if (b->type != BlockType::kData) {
    DropBlock(std::move(b));
    return;
  }
  pending_.insert(pending_.end(), b->payload(), b->payload() + b->size());
  bool delim = b->delim;
  RecycleBlock(std::move(b));  // payload captured; pool the node
  if (!delim) {
    return;
  }
  Bytes msg;
  msg.swap(pending_);
  Status s = conv_->SendMessage(std::move(msg));
  if (!s.ok()) {
    P9_LOG(kDebug) << name_ << " send: " << s.error().message();
  }
}

void RttEstimator::Sample(std::chrono::microseconds sample) {
  if (srtt_.count() == 0) {
    srtt_ = sample;
    mdev_ = sample / 2;
    return;
  }
  auto err = sample - srtt_;
  srtt_ += err / 8;
  mdev_ += (std::chrono::microseconds(std::abs(err.count())) - mdev_) / 4;
}

std::chrono::microseconds RttEstimator::Rto() const {
  auto base = srtt_.count() == 0 ? bounds_.initial : srtt_ + 4 * mdev_;
  int doublings = std::min(backoff_, bounds_.max_doublings);
  for (int i = 0; i < doublings && base < bounds_.max; i++) {
    base *= 2;
  }
  return std::clamp(base, bounds_.min, bounds_.max);
}

}  // namespace plan9
