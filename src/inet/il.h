// IL — the Internet Link protocol (§3).
//
// "IL is a lightweight protocol designed to be encapsulated by IP.  It is a
// connection-based protocol providing reliable transmission of sequenced
// messages between machines."  Key properties, all implemented here:
//
//   * reliable datagram service with sequenced delivery (message == one
//     delimited block up the conversation stream);
//   * no flow control beyond "a small outstanding message window" — senders
//     block when the window fills, receivers discard out-of-window messages;
//   * two-way handshake generating initial sequence numbers;
//   * *query-based* retransmission: "IL does not do blind retransmission.
//     If a message is lost and a timeout occurs, a query message is sent...
//     The receiver responds to a query by retransmitting missing messages";
//   * adaptive timeouts from a round-trip timer, "so the protocol performs
//     well on both the Internet and on local Ethernets".
//
// Wire header (18 bytes, big-endian, IP protocol 40):
//   sum[2] len[2] type[1] spec[1] src[2] dst[2] id[4] ack[4]
#ifndef SRC_INET_IL_H_
#define SRC_INET_IL_H_

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

enum class IlType : uint8_t {
  kSync = 0,
  kData = 1,
  kDataQuery = 2,  // retransmitted data, provokes an immediate ack
  kAck = 3,
  kQuery = 4,  // "small control message containing the current sequence numbers"
  kState = 5,  // reply to a query
  kClose = 6,
};

// Per-conversation counters: each increment also feeds the node's net.il.*
// entry in /net/stats.  Atomic, so readable without the conversation lock.
struct IlConvMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter msgs_sent{this, "net.il.msgs-sent"};
  obs::Counter msgs_received{this, "net.il.msgs-rcvd"};
  obs::Counter bytes_sent{this, "net.il.bytes-sent"};
  obs::Counter bytes_received{this, "net.il.bytes-rcvd"};
  obs::Counter retransmits{this, "net.il.resends"};
  obs::Counter queries_sent{this, "net.il.queries"};
  obs::Counter states_sent{this, "net.il.states"};
  obs::Counter dups_dropped{this, "net.il.dups"};
  obs::Counter out_of_window{this, "net.il.outwin"};
  obs::Counter keepalives_sent{this, "net.il.keepalives"};  // idle probes
  // Killed after too many unanswered queries.
  obs::Counter deadman_closes{this, "net.il.deadman"};
};


class IlConv final : public IpConv<IlConv> {
 public:
  enum class State {
    kClosed,
    kSyncer,    // actively connecting
    kSyncee,    // passively connecting (spawned by an announced conv)
    kEstablished,
    kListening,  // announced
    kClosing,
  };

  // "A small outstanding message window prevents too many incoming messages
  // from being buffered."
  static constexpr uint32_t kWindow = 20;

  IlConv(IpConvTable<IlConv>* proto, int index);

  Status WaitReady() override;
  std::string StatusText() override;
  // The user data path; sleeps for window space.
  Status SendMessage(Bytes payload) override P9_HOT_PATH MAY_BLOCK;

  const IlConvMetrics& metrics() const { return metrics_; }
  std::chrono::microseconds Srtt();

 private:
  friend class IlProto;
  friend class IpConvTable<IlConv>;
  struct Unacked {
    uint32_t id;
    Bytes payload;
    TimerWheel::Clock::time_point sent_at;
    bool retransmitted = false;
  };

  // Conversation-core hooks (conv.h, ipconv.h).
  void ResetLocked() override REQUIRES(lock_);
  bool AnnouncedLocked() const override REQUIRES(lock_) {
    return state_ == State::kListening;
  }
  void Close() override;
  void Abandon(const std::string& why) override;
  void TimerLocked() override REQUIRES(lock_);
  bool IdleLocked() const override REQUIRES(lock_) { return state_ == State::kClosed; }
  Status ConnectLocked(uint32_t isn) override REQUIRES(lock_);
  void AnnounceLocked() override REQUIRES(lock_) { state_ = State::kListening; }
  bool AcceptLocked(IlConv* listener, uint32_t isn, uint32_t peer_id) override REQUIRES(lock_);

  void Input(IlType type, uint32_t id, uint32_t ack, Bytes payload) P9_HOT_PATH;
  void HandleAckLocked(uint32_t ack) REQUIRES(lock_);
  void DeliverDataLocked(uint32_t id, Bytes payload, bool is_query,
                         std::vector<BlockPtr>* deliveries) P9_HOT_PATH REQUIRES(lock_);
  Status EmitLocked(IlType type, uint32_t id, uint32_t ack, const Bytes& payload)
      REQUIRES(lock_);
  void RttSampleLocked(std::chrono::microseconds sample) REQUIRES(lock_);
  void CloseLocked(std::string_view why) REQUIRES(lock_);

  State state_ GUARDED_BY(lock_) = State::kClosed;

  // Send side.
  uint32_t start_ GUARDED_BY(lock_) = 0;  // initial sequence chosen at handshake
  uint32_t next_ GUARDED_BY(lock_) = 0;   // id of the next message to send
  std::deque<Unacked> unacked_ GUARDED_BY(lock_);

  // Receive side.
  uint32_t rstart_ GUARDED_BY(lock_) = 0;
  uint32_t recvd_ GUARDED_BY(lock_) = 0;  // highest in-sequence id received
  std::map<uint32_t, Bytes> out_of_order_ GUARDED_BY(lock_);

  // Adaptive timing (§3: "a round-trip timer is used to calculate
  // acknowledge and retransmission times in terms of the network speed").
  RttEstimator rtt_ GUARDED_BY(lock_);
  TimerWheel::Clock::time_point last_rexmit_ GUARDED_BY(lock_){};
  uint32_t last_rexmit_id_ GUARDED_BY(lock_) = 0;
  int sync_tries_ GUARDED_BY(lock_) = 0;
  int close_tries_ GUARDED_BY(lock_) = 0;
  // Deadman: consecutive queries the peer never answered.  Any Ack or State
  // from the peer resets it; crossing kDeadmanQueries kills the connection
  // (faster than waiting out the full backoff ladder on a dead link).
  int unanswered_queries_ GUARDED_BY(lock_) = 0;

  IlConvMetrics metrics_;  // atomic counters; no lock needed
};

class IlProto : public IpConvTable<IlConv> {
 public:
  explicit IlProto(IpStack* ip);

  std::string name() override { return "il"; }

  // The standard six files plus a stats file with the per-conversation
  // counters (retransmits, queries, deadman kills) tests assert on.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "listen", "local", "remote", "status", "stats"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

 private:
  static void Input(IpConvTable<IlConv>& il, IpPacket&& pkt) P9_HOT_PATH;
};

}  // namespace plan9

#endif  // SRC_INET_IL_H_
