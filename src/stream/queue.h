// Flow-controlled block queues (§2.4).
//
// "An instance of a processing module is represented by a pair of queues,
// one for each direction."  Queues point at put procedures and buffer blocks
// travelling along the stream.  Writers block when a queue exceeds its limit
// (flow control); readers sleep until data, close, or the reader's alarm.
#ifndef SRC_STREAM_QUEUE_H_
#define SRC_STREAM_QUEUE_H_

#include <chrono>
#include <deque>

#include "src/base/block_annotations.h"
#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/stream/block.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

// An alarm on blocked reads, Plan 9's way to make a read give up: while one
// is set on a thread, that thread's Queue::Get returns empty-handed once the
// deadline passes, and the readers above report kErrInterrupted, never EOF.
// A 9P caller reads its reply under its RPC deadline this way.  Nested
// alarms keep the earlier deadline.
class ReadAlarm {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ReadAlarm(Clock::time_point deadline);
  ~ReadAlarm();
  ReadAlarm(const ReadAlarm&) = delete;
  ReadAlarm& operator=(const ReadAlarm&) = delete;

  // The calling thread's deadline; Clock::time_point::max() when none is set.
  static Clock::time_point Deadline();

 private:
  Clock::time_point outer_;
};

class Queue {
 public:
  static constexpr size_t kDefaultLimit = 128 * 1024;

  explicit Queue(size_t limit = kDefaultLimit) : limit_(limit) {}
  ~Queue();  // releases still-queued bytes from the process depth gauge

  // Enqueue, sleeping while the queue is over its limit.  Fails if closed.
  Status Put(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH MAY_BLOCK;

  // Enqueue without flow control (device input paths must not block).
  Status PutNoBlock(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;

  // Return a partially consumed block to the head of the queue.
  void PutBack(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;

  // Dequeue; blocks until a block is available.  Returns nullptr once the
  // queue is closed and drained, or when the thread's ReadAlarm rings first
  // (the queue is then still open: closed() tells the two apart).
  BlockPtr Get() P9_HOT_PATH MAY_BLOCK;

  // Non-blocking dequeue; nullptr if empty.
  BlockPtr GetNoWait() P9_HOT_PATH;

  // No more puts; readers drain whatever is queued, then see EOF.
  void Close();
  // Close and discard queued blocks.
  void CloseAndFlush();

  bool closed();
  size_t byte_count();
  size_t block_count();

 private:
  // Queue locks order *after* the stream read lock and after conversation
  // locks (input paths put while holding conversation state); they are
  // leaves apart from the timer.
  QLock lock_{"stream.queue"};
  Rendez can_read_;
  Rendez can_write_;
  std::deque<BlockPtr> blocks_ GUARDED_BY(lock_);
  size_t bytes_ GUARDED_BY(lock_) = 0;
  const size_t limit_;
  bool closed_ GUARDED_BY(lock_) = false;
};

}  // namespace plan9

#endif  // SRC_STREAM_QUEUE_H_
