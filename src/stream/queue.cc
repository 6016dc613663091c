#include "src/stream/queue.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace plan9 {

namespace {

thread_local ReadAlarm::Clock::time_point t_alarm = ReadAlarm::Clock::time_point::max();

// Total bytes queued across every stream queue in the process, with a
// high-water mark (stream.q.depth / stream.q.depth-hiwat in /net/stats).
obs::Gauge& DepthGauge() {
  static obs::Gauge* g =
      &obs::MetricsRegistry::Default().GaugeNamed("stream.q.depth");
  return *g;
}

}  // namespace

ReadAlarm::ReadAlarm(Clock::time_point deadline) : outer_(t_alarm) {
  t_alarm = std::min(outer_, deadline);
}

ReadAlarm::~ReadAlarm() { t_alarm = outer_; }

ReadAlarm::Clock::time_point ReadAlarm::Deadline() { return t_alarm; }

Queue::~Queue() {
  if (bytes_ > 0) {
    DepthGauge().Add(-static_cast<int64_t>(bytes_));
  }
}

Status Queue::Put(BlockPtr b) {
  {
    QLockGuard guard(lock_);
    can_write_.Sleep(lock_, [&]() REQUIRES(lock_) { return closed_ || bytes_ <= limit_; });
    if (closed_) {
      DropBlock(std::move(b));  // don't strand the block on the failed path
      return Error(kErrHungup);
    }
    bytes_ += b->size();
    DepthGauge().Add(static_cast<int64_t>(b->size()));
    blocks_.push_back(std::move(b));
  }
  can_read_.Wakeup();
  return Status::Ok();
}

Status Queue::PutNoBlock(BlockPtr b) {
  {
    QLockGuard guard(lock_);
    if (closed_) {
      DropBlock(std::move(b));
      return Error(kErrHungup);
    }
    bytes_ += b->size();
    DepthGauge().Add(static_cast<int64_t>(b->size()));
    blocks_.push_back(std::move(b));
  }
  can_read_.Wakeup();
  return Status::Ok();
}

void Queue::PutBack(BlockPtr b) {
  {
    QLockGuard guard(lock_);
    bytes_ += b->size();
    DepthGauge().Add(static_cast<int64_t>(b->size()));
    blocks_.push_front(std::move(b));
  }
  can_read_.Wakeup();
}

BlockPtr Queue::Get() {
  BlockPtr b;
  {
    QLockGuard guard(lock_);
    auto ready = [&]() REQUIRES(lock_) { return closed_ || !blocks_.empty(); };
    const auto alarm = t_alarm;
    if (alarm == ReadAlarm::Clock::time_point::max()) {
      can_read_.Sleep(lock_, ready);
    } else {
      (void)can_read_.SleepFor(lock_, alarm - ReadAlarm::Clock::now(), ready);
    }
    if (blocks_.empty()) {
      return nullptr;  // closed and drained, or the alarm rang
    }
    b = std::move(blocks_.front());
    blocks_.pop_front();
    bytes_ -= b->size();
    DepthGauge().Add(-static_cast<int64_t>(b->size()));
  }
  can_write_.Wakeup();
  return b;
}

BlockPtr Queue::GetNoWait() {
  BlockPtr b;
  {
    QLockGuard guard(lock_);
    if (blocks_.empty()) {
      return nullptr;
    }
    b = std::move(blocks_.front());
    blocks_.pop_front();
    bytes_ -= b->size();
    DepthGauge().Add(-static_cast<int64_t>(b->size()));
  }
  can_write_.Wakeup();
  return b;
}

void Queue::Close() {
  {
    QLockGuard guard(lock_);
    closed_ = true;
  }
  can_read_.Wakeup();
  can_write_.Wakeup();
}

void Queue::CloseAndFlush() {
  {
    QLockGuard guard(lock_);
    closed_ = true;
    blocks_.clear();
    DepthGauge().Add(-static_cast<int64_t>(bytes_));
    bytes_ = 0;
  }
  can_read_.Wakeup();
  can_write_.Wakeup();
}

bool Queue::closed() {
  QLockGuard guard(lock_);
  return closed_;
}

size_t Queue::byte_count() {
  QLockGuard guard(lock_);
  return bytes_;
}

size_t Queue::block_count() {
  QLockGuard guard(lock_);
  return blocks_.size();
}

}  // namespace plan9
