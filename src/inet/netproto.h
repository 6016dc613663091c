// The protocol-device contract (§2.3).
//
// "All protocol devices look identical so user programs contain no
// network-specific code."  Every transport (TCP, UDP, IL over IP; URP over
// Datakit) implements NetProto/NetConv; the devproto driver (src/dev) turns
// one NetProto into the file tree /net/<proto>/{clone, 0/, 1/, ...} with
// ctl/data/listen/local/remote/status files per conversation.
//
// Each conversation owns a Stream (§2.4) whose device module is the protocol
// itself: user writes travel down the stream into the protocol's output
// routine, and packets demultiplexed from the wire are put up the stream
// into the head queue where reads find them.
#ifndef SRC_INET_NETPROTO_H_
#define SRC_INET_NETPROTO_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/strings.h"
#include "src/base/thread_annotations.h"
#include "src/obs/context.h"
#include "src/stream/stream.h"

namespace plan9 {

class NetConv {
 public:
  virtual ~NetConv() = default;

  int index() const { return index_; }
  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }

  // One ASCII control message written to the ctl file, e.g.
  // "connect 135.104.9.31!564", "announce 17008", "hangup".
  virtual Status Ctl(const std::string& msg) = 0;

  // Blocks until the conversation is usable: after `connect` this is
  // connection establishment ("When the data file is opened the connection
  // is established"); after `announce` it returns at once.
  virtual Status WaitReady() MAY_BLOCK = 0;

  // Data file I/O.  Reads come from the conversation's stream head and so
  // honour the transport's delimiter behaviour (IL/UDP/URP preserve message
  // boundaries; TCP does not).
  virtual Result<size_t> Write(const uint8_t* data, size_t n) MAY_BLOCK {
    return stream_->Write(data, n);
  }
  Result<size_t> Read(uint8_t* buf, size_t n) MAY_BLOCK { return stream_->Read(buf, n); }
  Result<Bytes> ReadMessage() MAY_BLOCK { return stream_->ReadMessage(); }

  // Blocks until an incoming call arrives on this announced conversation;
  // returns the index of the newly created conversation.
  virtual Result<int> Listen() MAY_BLOCK = 0;

  // Contents of the local / remote / status files.
  virtual std::string Local() = 0;
  virtual std::string Remote() = 0;
  virtual std::string StatusText() = 0;

  // Called when the last user reference to the conversation's files goes
  // away: initiate graceful shutdown and eventually recycle the slot.
  virtual void CloseUser() = 0;

  Stream* stream() { return stream_.get(); }

  // Reference count of open files on this conversation (managed by the
  // devproto driver; shown in the status file).
  std::atomic<int> refs{0};

  // Causal tracing (DESIGN.md §12): the context active when the user wrote
  // connect/announce to the ctl file, captured by devproto so late protocol
  // events (IL RTT samples) and the status line stay attributable.  hi is
  // written last / read first so a concurrent status reader never sees a
  // half-stamped id.
  void CaptureTrace(const obs::TraceContext& ctx) {
    if (!ctx.sampled) {
      return;
    }
    trace_parent_.store(ctx.span_id, std::memory_order_relaxed);
    trace_lo_.store(ctx.trace_lo, std::memory_order_relaxed);
    trace_rtt_budget_.store(kTraceRttBudget, std::memory_order_relaxed);
    trace_hi_.store(ctx.trace_hi, std::memory_order_release);
  }
  uint64_t trace_hi() const { return trace_hi_.load(std::memory_order_acquire); }
  uint64_t trace_lo() const { return trace_lo_.load(std::memory_order_relaxed); }
  uint64_t trace_parent() const {
    return trace_parent_.load(std::memory_order_relaxed);
  }
  // Point spans (il.rtt) are bounded per capture: without a budget a
  // stamped conversation would emit one span per ack for its whole
  // lifetime, flooding the ring — and since reading /net/trace over the
  // network acks frames, harvesting the trace would *generate* trace.
  bool TakeRttSpanBudget() {
    int budget = trace_rtt_budget_.load(std::memory_order_relaxed);
    while (budget > 0) {
      if (trace_rtt_budget_.compare_exchange_weak(budget, budget - 1,
                                                  std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }
  // " trace <32 hex>" for status lines; empty if never dialed under a
  // sampled context.
  std::string TraceNote() const {
    uint64_t hi = trace_hi();
    uint64_t lo = trace_lo();
    if (hi == 0 && lo == 0) {
      return "";
    }
    return StrFormat(" trace %016llx%016llx", (unsigned long long)hi,
                     (unsigned long long)lo);
  }

 protected:
  int index_ = 0;
  std::string owner_ = "network";
  std::unique_ptr<Stream> stream_;

 private:
  static constexpr int kTraceRttBudget = 32;

  std::atomic<uint64_t> trace_hi_{0};
  std::atomic<uint64_t> trace_lo_{0};
  std::atomic<uint64_t> trace_parent_{0};
  std::atomic<int> trace_rtt_budget_{0};
};

class NetProto {
 public:
  explicit NetProto(obs::Context& obs) : obs_(obs) {}
  virtual ~NetProto() = default;

  // Directory name under /net ("tcp", "udp", "il", "dk").
  virtual std::string name() = 0;

  // The owning node's observability context: its conversations count into
  // its /net/stats and trace into its /net/trace.
  obs::Context& obs() const { return obs_; }

  // Conversation slots per protocol (directory entries 0..255).
  static constexpr size_t kMaxConvs = 256;

  // The clone file: reserve an unused conversation.
  virtual Result<NetConv*> Clone() = 0;

  // Conversation by number; nullptr if the slot was never created.
  virtual NetConv* Conv(size_t index) = 0;

  // Number of conversation slots ever created (directory size).
  virtual size_t ConvCount() = 0;

  // The files of each conversation directory.  A protocol may add its own
  // (a stats file) or replace them (the ether driver's Figure 1 set).
  virtual std::vector<std::string> ConvFileNames() {
    return {"ctl", "data", "listen", "local", "remote", "status"};
  }

  // Contents of an info file (local/remote/status/stats/type...).
  virtual Result<std::string> InfoText(NetConv* conv, const std::string& file) {
    if (file == "local") {
      return conv->Local();
    }
    if (file == "remote") {
      return conv->Remote();
    }
    if (file == "status") {
      return conv->StatusText();
    }
    return Error(kErrNotExist);
  }

 private:
  obs::Context& obs_;
};

}  // namespace plan9

#endif  // SRC_INET_NETPROTO_H_
