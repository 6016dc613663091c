// TCP (§2.3, §3).
//
// The paper's baseline transport: a byte-stream protocol that "has a high
// overhead and does not preserve delimiters".  This implementation is a
// classic 1993-shape TCP: three-way handshake, cumulative acks, a sliding
// window, adaptive RTO — and *blind* go-back-N retransmission on timeout,
// which is exactly the behaviour §3 contrasts IL's query scheme against
// ("blind retransmission would cause further congestion").
//
// Delimiters are deliberately not preserved: inbound bytes are delivered as
// undelimited blocks, so 9P over TCP needs the framing module
// (src/ninep/framing) — "we provide mechanisms to marshal messages before
// handing them to the system".
#ifndef SRC_INET_TCP_H_
#define SRC_INET_TCP_H_

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/ip.h"
#include "src/inet/ipconv.h"
#include "src/obs/metrics.h"
#include "src/task/qlock.h"
#include "src/task/timers.h"

namespace plan9 {

// Per-conversation counters: each increment also feeds the node's net.tcp.*
// entry in /net/stats.
struct TcpConvMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter segs_sent{this, "net.tcp.segs-sent"};
  obs::Counter segs_received{this, "net.tcp.segs-rcvd"};
  obs::Counter bytes_sent{this, "net.tcp.bytes-sent"};
  obs::Counter bytes_received{this, "net.tcp.bytes-rcvd"};
  obs::Counter retransmit_segs{this, "net.tcp.resends"};
  obs::Counter retransmit_bytes{this, "net.tcp.resend-bytes"};
  obs::Counter dup_segs{this, "net.tcp.dups"};
};


class TcpConv final : public IpConv<TcpConv> {
 public:
  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kClosing,
    kLastAck,
    kTimeWait,
  };

  static constexpr size_t kMss = 1400;
  static constexpr size_t kSendWindow = 16 * 1024;   // fixed cwnd, 1993-style
  static constexpr size_t kSendBufMax = 64 * 1024;   // user write backpressure

  TcpConv(IpConvTable<TcpConv>* proto, int index);

  Status WaitReady() override;
  std::string StatusText() override;
  // A message is just bytes to TCP.
  Status SendMessage(Bytes msg) override MAY_BLOCK {
    return QueueBytes(msg.data(), msg.size());
  }

  const TcpConvMetrics& metrics() const { return metrics_; }
  std::chrono::microseconds Srtt();

 private:
  friend class TcpProto;
  friend class IpConvTable<TcpConv>;
  class Module;

  // Conversation-core hooks (conv.h, ipconv.h).
  void ResetLocked() override REQUIRES(lock_);
  bool AnnouncedLocked() const override REQUIRES(lock_) { return state_ == State::kListen; }
  void Close() override;
  void Abandon(const std::string& why) override;
  void TimerLocked() override REQUIRES(lock_);
  std::unique_ptr<StreamModule> NewModule() override;
  bool IdleLocked() const override REQUIRES(lock_) { return state_ == State::kClosed; }
  Status ConnectLocked(uint32_t isn) override REQUIRES(lock_);
  void AnnounceLocked() override REQUIRES(lock_) { state_ = State::kListen; }
  bool AcceptLocked(TcpConv* listener, uint32_t isn, uint32_t peer_seq) override
      REQUIRES(lock_);

  Status QueueBytes(const uint8_t* data, size_t n) P9_HOT_PATH MAY_BLOCK;  // user data path; sndbuf sleep
  void Input(uint32_t seq, uint32_t ack, uint16_t flags, uint16_t wnd,
             Bytes payload) P9_HOT_PATH;
  void TrySendLocked() REQUIRES(lock_);
  void EmitLocked(uint16_t flags, uint32_t seq, size_t payload_off, size_t payload_len)
      REQUIRES(lock_);
  void RetransmitLocked() REQUIRES(lock_);
  void ProcessAckLocked(uint32_t ack, uint16_t wnd) REQUIRES(lock_);
  void ProcessDataLocked(uint32_t seq, Bytes payload, bool fin,
                         std::vector<BlockPtr>* deliveries, bool* peer_closed)
      REQUIRES(lock_);
  void EnterTimeWaitLocked() REQUIRES(lock_);
  // Closed for good: the send buffer dropped and the hangup pending.
  void CloseLocked(std::string_view why) REQUIRES(lock_);
  void RttSampleLocked(std::chrono::microseconds sample) REQUIRES(lock_);
  void MaybeSendFinLocked() REQUIRES(lock_);
  const char* StateNameLocked() const REQUIRES(lock_);

  State state_ GUARDED_BY(lock_) = State::kClosed;

  // Send sequence space.  send_buf_ holds bytes [snd_una, snd_una+size).
  uint32_t iss_ GUARDED_BY(lock_) = 0;
  uint32_t snd_una_ GUARDED_BY(lock_) = 0;
  uint32_t snd_nxt_ GUARDED_BY(lock_) = 0;
  uint32_t snd_wnd_ GUARDED_BY(lock_) = kSendWindow;
  std::deque<uint8_t> send_buf_ GUARDED_BY(lock_);
  bool fin_pending_ GUARDED_BY(lock_) = false;  // user closed; FIN after the buffer
  bool fin_sent_ GUARDED_BY(lock_) = false;
  TimerWheel::Clock::time_point rtt_seg_sent_ GUARDED_BY(lock_);
  uint32_t rtt_seg_seq_ GUARDED_BY(lock_) = 0;  // sequence being timed (0 = none)
  bool rtt_timing_ GUARDED_BY(lock_) = false;

  // Receive sequence space.
  uint32_t irs_ GUARDED_BY(lock_) = 0;
  uint32_t rcv_nxt_ GUARDED_BY(lock_) = 0;
  std::map<uint32_t, Bytes> out_of_order_ GUARDED_BY(lock_);
  bool fin_received_ GUARDED_BY(lock_) = false;

  RttEstimator rtt_ GUARDED_BY(lock_);
  int handshake_tries_ GUARDED_BY(lock_) = 0;

  TcpConv* listener_backref_ GUARDED_BY(lock_) = nullptr;  // spawning conv (accept)
  TcpConvMetrics metrics_;  // atomic counters; no lock needed
};

class TcpProto : public IpConvTable<TcpConv> {
 public:
  explicit TcpProto(IpStack* ip);

  std::string name() override { return "tcp"; }

  // The standard six files plus a stats file with per-conversation
  // retransmit and duplicate-segment counters.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "listen", "local", "remote", "status", "stats"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

 private:
  static void Input(IpConvTable<TcpConv>& tcp, IpPacket&& pkt) P9_HOT_PATH;
};

}  // namespace plan9

#endif  // SRC_INET_TCP_H_
