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
#include "src/inet/netproto.h"
#include "src/obs/metrics.h"
#include "src/sim/datakit.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"
#include "src/task/timers.h"

namespace plan9 {

// Registry-backed URP counters (net.dk.* aggregates in /net/stats).
struct UrpMetrics {
  UrpMetrics();

  obs::Counter cells_sent;
  obs::Counter cells_received;
  obs::Counter retransmits;
  obs::Counter msgs_sent;
  obs::Counter msgs_received;
  obs::Counter bytes_sent;
  obs::Counter bytes_received;

  void Reset();  // this conversation only
};

class DkProto;

class DkConv : public NetConv {
 public:
  enum class State { kIdle, kAnnounced, kIncoming, kEstablished, kClosed };

  static constexpr size_t kCellData = 1024;
  static constexpr uint8_t kSeqMod = 8;
  static constexpr uint8_t kWindow = 4;

  DkConv(DkProto* proto, int index);
  ~DkConv() override;

  Status Ctl(const std::string& msg) override;
  Status WaitReady() override;
  Result<int> Listen() override;
  std::string Local() override;
  std::string Remote() override;
  std::string StatusText() override;
  void CloseUser() override;

  const UrpMetrics& metrics() const { return metrics_; }

 private:
  friend class DkProto;
  class Module;
  struct Cell {
    uint8_t seq;
    Bytes raw;  // full cell incl. header
    bool sent = false;
  };

  Status AttachCircuit(std::shared_ptr<DkCircuit> circuit, DkCircuit::End end);
  Status SendMessage(const Bytes& msg) P9_HOT_PATH MAY_BLOCK;  // URP window sleep
  void CircuitInput(Bytes cell) P9_HOT_PATH;
  void CircuitHangup();
  void PumpLocked() REQUIRES(lock_);  // send cells while window allows
  void EmitAckLocked() REQUIRES(lock_);
  void ArmTimerLocked() REQUIRES(lock_);
  void CancelTimerLocked() REQUIRES(lock_);
  void TimerFire(uint64_t gen);
  Status DoAccept();
  void Recycle();

  DkProto* proto_;
  // Ordered after dk.proto (AllocConv/IncomingCall hold both).
  QLock lock_{"dk.conv"};
  Rendez window_;    // sender window space
  Rendez incoming_;  // pending calls
  Rendez decided_;   // incoming call accepted/rejected

  State state_ GUARDED_BY(lock_) = State::kIdle;
  bool slot_free_ GUARDED_BY(lock_) = true;
  // Proto teardown: never re-arm the timer.
  bool dying_ GUARDED_BY(lock_) = false;
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
  TimerId timer_ GUARDED_BY(lock_) = kNoTimer;
  uint64_t timer_gen_ GUARDED_BY(lock_) = 0;  // see IlConv::timer_gen_

  // URP receiver.
  uint8_t recv_expect_ GUARDED_BY(lock_) = 0;
  Bytes partial_ GUARDED_BY(lock_);  // message being reassembled (BOT..EOT)

  std::deque<int> pending_ GUARDED_BY(lock_);
  std::string err_ GUARDED_BY(lock_);
  UrpMetrics metrics_;  // atomic counters; no lock needed
};

class DkProto : public NetProto {
 public:
  // `host_name` is this machine's Datakit address ("nj/astro/helix").
  DkProto(DatakitSwitch* dk_switch, std::string host_name);
  ~DkProto() override;

  std::string name() override { return "dk"; }
  Result<NetConv*> Clone() override;
  NetConv* Conv(size_t index) override;
  size_t ConvCount() override;

  DatakitSwitch* dk() { return switch_; }
  const std::string& host_name() const { return host_name_; }

  // Crash semantics (node lifecycle).  Unplug detaches this host from the
  // switch so the name is free for the restarted kernel to re-attach — a
  // graveyarded proto must never DetachHost again, or it would rip out its
  // successor's registration (the "address in use" stale-registry bug).
  void Unplug();
  // Abort closes every circuit abruptly (the switch drops a dead host's
  // circuits; peers see a hangup through the wire, not a polite close).
  void Abort(const std::string& why) MAY_BLOCK;

 private:
  friend class DkConv;

  void IncomingCall(std::shared_ptr<DkCall> call);
  Result<DkConv*> AllocConv();

  DatakitSwitch* switch_;
  std::string host_name_;
  QLock lock_{"dk.proto"};
  std::vector<std::unique_ptr<DkConv>> convs_ GUARDED_BY(lock_);
  bool unplugged_ GUARDED_BY(lock_) = false;
};

}  // namespace plan9

#endif  // SRC_DK_URP_H_
