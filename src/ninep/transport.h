// Message transports for 9P.
//
// 9P "assumes messages arrive reliably and in sequence and that delimiters
// between messages are preserved.  When a protocol does not meet these
// requirements (for example, TCP does not preserve delimiters) we provide
// mechanisms to marshal messages before handing them to the system."
//
//   * FramedMsgTransport — over a byte stream (TCP): each message carries a
//     4-byte little-endian length prefix (the marshal mechanism).
//     Delimiter-preserving networks (IL, URP, Cyclone) need no framing:
//     Proc::TransportForFd reads and writes whole messages on the data file.
//   * PipeTransport — an in-process bidirectional queue pair, used to mount
//     kernel-resident user-level servers without a network.
#ifndef SRC_NINEP_TRANSPORT_H_
#define SRC_NINEP_TRANSPORT_H_

#include <functional>
#include <memory>
#include <utility>

#include "src/base/block_annotations.h"
#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/stream/queue.h"

namespace plan9 {

class MsgTransport {
 public:
  virtual ~MsgTransport() = default;

  // Blocking read of one whole 9P message.  Empty bytes = EOF/hangup.  A
  // read the thread's ReadAlarm (src/stream/queue.h) cuts short fails with
  // kErrInterrupted and loses nothing: the message is read by a later call.
  virtual Result<Bytes> ReadMsg() P9_HOT_PATH MAY_BLOCK = 0;
  // Blocking: every transport can flow-control (queue limits, protocol
  // windows).  Callers may hold only sleepable locks (9p.server.write).
  virtual Status WriteMsg(Bytes msg) P9_HOT_PATH MAY_BLOCK = 0;
  virtual void Close() = 0;
};

// Over a byte-oriented channel: reader/writer callbacks (e.g. the data file
// of a TCP conversation).  Adds/strips the length prefix.  One thread reads
// at a time (the 9P client's reader role).
class FramedMsgTransport : public MsgTransport {
 public:
  // read: fill up to n bytes, return count (0 = EOF).  write: all-or-error.
  using ReadFn = std::function<Result<size_t>(uint8_t* buf, size_t n)>;
  using WriteFn = std::function<Status(const uint8_t* data, size_t n)>;
  using CloseFn = std::function<void()>;

  FramedMsgTransport(ReadFn read, WriteFn write, CloseFn close)
      : read_(std::move(read)), write_(std::move(write)), close_(std::move(close)) {}

  Result<Bytes> ReadMsg() override P9_HOT_PATH;
  Status WriteMsg(Bytes msg) override P9_HOT_PATH;
  void Close() override {
    if (close_) {
      close_();
    }
  }

 private:
  // Read until *got reaches n, counting bytes in *got as they come; false
  // at EOF before any byte.
  Result<bool> ReadFull(uint8_t* buf, size_t n, size_t* got);

  ReadFn read_;
  WriteFn write_;
  CloseFn close_;
  // The frame being read: its length prefix, then its body.
  uint8_t hdr_[4] = {};
  size_t hdr_got_ = 0;  // prefix bytes read; the body is in progress at 4
  Bytes body_;
  size_t body_got_ = 0;
};

// An in-process full-duplex message pipe; Make() returns the two ends.
class PipeTransport : public MsgTransport {
 public:
  static std::pair<std::unique_ptr<MsgTransport>, std::unique_ptr<MsgTransport>> Make();

  Result<Bytes> ReadMsg() override P9_HOT_PATH;
  Status WriteMsg(Bytes msg) override P9_HOT_PATH;
  void Close() override;

 private:
  PipeTransport(std::shared_ptr<Queue> rx, std::shared_ptr<Queue> tx)
      : rx_(std::move(rx)), tx_(std::move(tx)) {}

  std::shared_ptr<Queue> rx_;
  std::shared_ptr<Queue> tx_;
};

}  // namespace plan9

#endif  // SRC_NINEP_TRANSPORT_H_
