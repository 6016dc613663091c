// UDP protocol device (§2.3).
//
// "UDP, while cheap, does not provide reliable sequenced delivery" — it is
// implemented here both as a usable transport (DNS queries ride on it) and
// as the baseline the loss benchmarks measure IL against.  Datagram
// boundaries are preserved: each datagram arrives as one delimited block.
//
// Announce/listen follow the uniform conversation model: a datagram from a
// previously unseen source on an announced port materializes a new
// conversation, which Listen() returns — giving UDP the same file-level
// interface as the connection-oriented protocols.
#ifndef SRC_INET_UDP_H_
#define SRC_INET_UDP_H_

#include <memory>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/ip.h"
#include "src/inet/ipconv.h"
#include "src/obs/metrics.h"
#include "src/task/qlock.h"

namespace plan9 {


// Datagram/byte counters (net.udp.* in the node's /net/stats).
struct UdpConvMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter dgrams_sent{this, "net.udp.dgrams-sent"};
  obs::Counter dgrams_received{this, "net.udp.dgrams-rcvd"};
  obs::Counter bytes_sent{this, "net.udp.bytes-sent"};
  obs::Counter bytes_received{this, "net.udp.bytes-rcvd"};
};

class UdpConv final : public IpConv<UdpConv> {
 public:
  enum class State { kIdle, kConnected, kAnnounced, kClosed };

  UdpConv(IpConvTable<UdpConv>* proto, int index);

  Status WaitReady() override;
  std::string StatusText() override;
  // Transmit one datagram to the connected remote.
  Status SendMessage(Bytes payload) override;

  const UdpConvMetrics& metrics() const { return metrics_; }

 private:
  friend class UdpProto;
  friend class IpConvTable<UdpConv>;

  // Conversation-core hooks (conv.h, ipconv.h).
  void ResetLocked() override REQUIRES(lock_);
  bool AnnouncedLocked() const override REQUIRES(lock_) {
    return state_ == State::kAnnounced;
  }
  void Close() override;
  void Abandon(const std::string& why) override;
  bool IdleLocked() const override REQUIRES(lock_) { return state_ == State::kIdle; }
  Status ConnectLocked(uint32_t isn) override REQUIRES(lock_) {
    state_ = State::kConnected;
    return Status::Ok();
  }
  void AnnounceLocked() override REQUIRES(lock_) { state_ = State::kAnnounced; }
  bool AcceptLocked(UdpConv* listener, uint32_t isn, uint32_t peer_isn) override
      REQUIRES(lock_) {
    state_ = State::kConnected;
    return true;
  }
  // "bind <port>": fix the local port before connect.
  Status CtlVerb(const std::vector<std::string>& words) override;

  void Input(const IpPacket& pkt, uint16_t sport, Bytes payload) P9_HOT_PATH;

  State state_ GUARDED_BY(lock_) = State::kIdle;
  UdpConvMetrics metrics_;  // atomic counters; no lock needed
};

class UdpProto : public IpConvTable<UdpConv> {
 public:
  explicit UdpProto(IpStack* ip);

  std::string name() override { return "udp"; }

 private:
  static void Input(IpConvTable<UdpConv>& udp, IpPacket&& pkt) P9_HOT_PATH;
};

}  // namespace plan9

#endif  // SRC_INET_UDP_H_
