// URP over Datakit (§2.3, §8).
//
// The Datakit protocol device: conversations are virtual circuits through a
// DatakitSwitch, with URP ("Universal Receiver Protocol" [Fra80]) providing
// reliable windowed transmission over each circuit.  Addresses are ASCII
// ("connect nj/astro/helix!9fs"); message delimiters are preserved, so 9P
// runs over it unframed.  Datakit is the network that "accept[s] a reason
// for a rejection" — the spawned incoming conversation understands
// `accept` and `reject <reason>` ctl messages.
//
// URP here: cells of at most kCellData bytes, 3-bit sequence numbers, a
// window of kWindow cells, cumulative ACK cells, go-back-N retransmission
// on a fixed circuit timeout (Datakit circuits have stable latency, unlike
// IP paths — contrast with IL's adaptive timers).
#ifndef SRC_DK_URP_H_
#define SRC_DK_URP_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/conv.h"
#include "src/obs/metrics.h"
#include "src/sim/datakit.h"
#include "src/task/qlock.h"

namespace plan9 {

// URP counters (net.dk.* in the node's /net/stats).
struct UrpMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter cells_sent{this, "net.dk.cells-sent"};
  obs::Counter cells_received{this, "net.dk.cells-rcvd"};
  obs::Counter retransmits{this, "net.dk.resends"};
  obs::Counter msgs_sent{this, "net.dk.msgs-sent"};
  obs::Counter msgs_received{this, "net.dk.msgs-rcvd"};
  obs::Counter bytes_sent{this, "net.dk.bytes-sent"};
  obs::Counter bytes_received{this, "net.dk.bytes-rcvd"};
};

class DkProto;

class DkConv : public ConvCore {
 public:
  enum class State { kIdle, kAnnounced, kIncoming, kEstablished, kClosed };

  static constexpr size_t kCellData = 1024;
  static constexpr uint8_t kSeqMod = 8;
  static constexpr uint8_t kWindow = 4;

  DkConv(DkProto* proto, int index);

  Status Ctl(const std::string& msg) override;
  Status WaitReady() override;
  std::string Local() override;
  std::string Remote() override;
  std::string StatusText() override;
  // URP window sleep.
  Status SendMessage(Bytes msg) override P9_HOT_PATH MAY_BLOCK;

  const UrpMetrics& metrics() const { return metrics_; }

 private:
  friend class DkProto;
  struct Cell {
    uint8_t seq;
    Bytes raw;  // full cell incl. header
    bool sent = false;
  };

  // Conversation-core hooks (conv.h).
  void ResetLocked() override REQUIRES(lock_);
  bool AnnouncedLocked() const override REQUIRES(lock_) {
    return state_ == State::kAnnounced;
  }
  void Close() override;
  void Abandon(const std::string& why) override;
  void TimerLocked() override REQUIRES(lock_);

  Status AttachCircuit(std::shared_ptr<DkCircuit> circuit, DkCircuit::End end);
  // Circuit callbacks; input from a circuit this conversation has since left
  // (the slot was closed and reused) is ignored.
  void CircuitInput(const DkCircuit* from, Bytes cell) P9_HOT_PATH;
  void CircuitHangup(const DkCircuit* from);
  void PumpLocked() REQUIRES(lock_);  // send cells while window allows
  void EmitAckLocked() REQUIRES(lock_);
  Status DoAccept();

  DkProto* proto_;
  State state_ GUARDED_BY(lock_) = State::kIdle;
  std::string remote_addr_ GUARDED_BY(lock_);
  std::string announced_service_ GUARDED_BY(lock_);

  std::shared_ptr<DkCircuit> circuit_ GUARDED_BY(lock_);
  DkCircuit::End end_ GUARDED_BY(lock_) = Wire::kA;
  std::shared_ptr<DkCall> call_ GUARDED_BY(lock_);  // incoming, pre-accept

  // URP sender.
  uint8_t send_seq_ GUARDED_BY(lock_) = 0;  // next sequence to assign
  uint8_t send_una_ GUARDED_BY(lock_) = 0;  // oldest unacknowledged
  // Cells [send_una_ ...], window + queued.
  std::deque<Cell> out_ GUARDED_BY(lock_);

  // URP receiver.
  uint8_t recv_expect_ GUARDED_BY(lock_) = 0;
  Bytes partial_ GUARDED_BY(lock_);  // message being reassembled (BOT..EOT)

  UrpMetrics metrics_;  // atomic counters; no lock needed
};

class DkProto : public ConvTable<DkConv> {
 public:
  // `host_name` is this machine's Datakit address ("nj/astro/helix").
  DkProto(DatakitSwitch* dk_switch, std::string host_name,
          obs::Context& obs = obs::Context::Root());
  ~DkProto() override;

  std::string name() override { return "dk"; }

  DatakitSwitch* dk() { return switch_; }
  const std::string& host_name() const { return host_name_; }

  // Crash semantics (node lifecycle).  Unplug detaches this host from the
  // switch so the name is free for the restarted kernel to re-attach — a
  // graveyarded proto must never DetachHost again, or it would rip out its
  // successor's registration (the "address in use" stale-registry bug).
  // Abort (ConvTable) then closes every circuit abruptly: the switch drops a
  // dead host's circuits, so peers see a hangup through the wire, not a
  // polite close.
  void Unplug();

 private:
  friend class DkConv;

  std::unique_ptr<DkConv> NewConv(int index) override {
    return std::make_unique<DkConv>(this, index);
  }
  void IncomingCall(std::shared_ptr<DkCall> call);

  DatakitSwitch* switch_;
  std::string host_name_;
  bool unplugged_ GUARDED_BY(lock_) = false;
};

}  // namespace plan9

#endif  // SRC_DK_URP_H_
