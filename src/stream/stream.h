// Streams (§2.4).
//
// "A stream is a bidirectional channel connecting a physical or pseudo-device
// to user processes. ... A stream comprises a linear list of processing
// modules.  Each module has both an upstream (toward the process) and
// downstream (toward the device) put routine."
//
// Layout of a Stream:
//
//    user Read/Write
//        |                          ^
//        v                          |  head queue
//    [module 0]  <-- top of stream (pushed modules live here)
//        ...
//    [module n-1]
//        |                          ^
//        v                          |
//    [device module]  <-- supplied by the device driver
//
// Write() splits data into blocks of at most kMaxBlock (32K: "A write of less
// than 32K is guaranteed to be contained by a single block"), flags the last
// with a delimiter, and calls the top module's downstream put.  In most cases
// each put routine calls the next directly, so "most data is output without
// context switching".
//
// The stream system intercepts `push name`, `pop` and `hangup` control
// blocks; all other control blocks travel down the stream for modules to
// interpret.
#ifndef SRC_STREAM_STREAM_H_
#define SRC_STREAM_STREAM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/stream/block.h"
#include "src/stream/queue.h"
#include "src/task/qlock.h"

namespace plan9 {

class Stream;

// A processing module instance.  Subclasses override the put routines; the
// default implementations forward along the stream.  "There is no implicit
// synchronization in our streams.  Each processing module must ensure that
// concurrent processes using the stream are synchronized."
class StreamModule {
 public:
  virtual ~StreamModule() = default;

  virtual std::string_view name() const = 0;

  // Data travelling toward the device.  Default: pass to the next module.
  virtual void DownPut(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH {
    PutDown(std::move(b));
  }

  // Data travelling toward the process.  Default: pass upward.
  virtual void UpPut(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH {
    PutUp(std::move(b));
  }

  // Called when the module is inserted into / removed from a stream.
  virtual void OnOpen(Stream* stream) {}
  virtual void OnClose() {}

 protected:
  // Forward helpers for subclasses.
  void PutDown(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;
  void PutUp(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;

 private:
  friend class Stream;
  StreamModule* up_ = nullptr;    // toward the process (head)
  StreamModule* down_ = nullptr;  // toward the device
};

// Factory registry for dynamically pushable modules ("push name").
class ModuleRegistry {
 public:
  using Factory = std::function<std::unique_ptr<StreamModule>()>;

  static ModuleRegistry& Instance();
  void Register(const std::string& name, Factory factory);
  std::unique_ptr<StreamModule> Create(const std::string& name);

 private:
  QLock lock_{"stream.modreg"};
  std::vector<std::pair<std::string, Factory>> factories_ GUARDED_BY(lock_);
};

class Stream {
 public:
  // "A write of less than 32K is guaranteed to be contained by a single
  // block."
  static constexpr size_t kMaxBlock = 32 * 1024;

  // The device module sits at the downstream end; Stream takes ownership.
  explicit Stream(std::unique_ptr<StreamModule> device_module,
                  size_t head_queue_limit = Queue::kDefaultLimit);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  // --- user (process) end --------------------------------------------------

  // Copy data into blocks and send them down the stream.  Returns bytes
  // written or an error (e.g. after hangup).  MAY_BLOCK: put routines below
  // can sleep on protocol windows or queue flow control.
  Result<size_t> Write(const uint8_t* data, size_t n) P9_HOT_PATH MAY_BLOCK;
  Result<size_t> Write(std::string_view s) MAY_BLOCK {
    return Write(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  // Write a control block.  `push name`, `pop` and `hangup` are interpreted
  // by the stream system; everything else goes down the stream.
  Status WriteControl(std::string_view msg) MAY_BLOCK;

  // Read up to n bytes.  "The read terminates when the read count is reached
  // or when the end of a delimited block is encountered."  Returns 0 at EOF
  // (hangup), and kErrInterrupted when the thread's ReadAlarm rings before
  // any data.  A per-stream read lock serializes readers.
  Result<size_t> Read(uint8_t* buf, size_t n) P9_HOT_PATH MAY_BLOCK;

  // Read exactly one delimited message (drains blocks up to and including
  // the next delimiter).  Returns empty Bytes at EOF, and kErrInterrupted
  // when the ReadAlarm rings first; a message read in part stays queued.
  Result<Bytes> ReadMessage() P9_HOT_PATH MAY_BLOCK;

  // Non-blocking check for readable data.
  bool HasInput();

  // --- stream management ---------------------------------------------------

  Status Push(const std::string& module_name);
  Status Pop();
  // Number of pushed modules (excluding the device module).
  size_t ModuleCount();

  // --- device / module end -------------------------------------------------

  // Deliver a block arriving from below the topmost module toward the user.
  // Called by the device module chain; lands in the head queue.
  void DeliverUp(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;

  // The device end signals disconnect; readers see EOF after draining.
  void Hangup();
  bool hungup();

  Queue& head_queue() { return head_queue_; }

 private:
  friend class StreamModule;

  // Sends b into the top of the downstream chain.
  void SendDown(BlockPtr b) P9_CONSUMES(b) P9_HOT_PATH;
  void Relink();

  std::shared_mutex chain_lock_;  // guards module list & links vs. traffic
  std::vector<std::unique_ptr<StreamModule>> modules_;  // [0] = top
  std::unique_ptr<StreamModule> device_module_;

  // Sentinel top module: UpPut lands blocks in the head queue.
  class HeadModule;
  std::unique_ptr<StreamModule> head_module_;

  Queue head_queue_;
  // "A per stream read lock ensures only one process..." — serialization
  // only, guards no members; ordered before the head queue's lock.
  // Sleepable: Read/ReadMessage hold it across head_queue_.Get() by design
  // (the whole point is to park later readers behind the blocked one).
  QLock read_lock_{"stream.read", kSleepableClass};
  std::atomic<bool> hungup_{false};
};

}  // namespace plan9

#endif  // SRC_STREAM_STREAM_H_
