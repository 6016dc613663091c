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
#include "src/inet/portutil.h"
#include "src/obs/metrics.h"
#include "src/task/qlock.h"

namespace plan9 {

class UdpProto;

// Datagram/byte counters (net.udp.* in the node's /net/stats).
struct UdpConvMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter dgrams_sent{this, "net.udp.dgrams-sent"};
  obs::Counter dgrams_received{this, "net.udp.dgrams-rcvd"};
  obs::Counter bytes_sent{this, "net.udp.bytes-sent"};
  obs::Counter bytes_received{this, "net.udp.bytes-rcvd"};
};

class UdpConv : public IpConv {
 public:
  enum class State { kIdle, kConnected, kAnnounced, kClosed };

  UdpConv(UdpProto* proto, int index);

  Status WaitReady() override;
  std::string StatusText() override;
  // Transmit one datagram to the connected remote.
  Status SendMessage(Bytes payload) override;

  const UdpConvMetrics& metrics() const { return metrics_; }

 private:
  friend class UdpProto;

  // Conversation-core hooks (conv.h, ipconv.h).
  void ResetLocked() override REQUIRES(lock_);
  bool AnnouncedLocked() const override REQUIRES(lock_) {
    return state_ == State::kAnnounced;
  }
  void Close() override;
  void Abandon(const std::string& why) override;
  Status Connect(const HostPort& dest) override;
  Status AnnounceLocked(uint16_t port) override REQUIRES(lock_);
  // "bind <port>": fix the local port before connect.
  Status CtlVerb(const std::vector<std::string>& words) override;

  void Input(const IpPacket& pkt, uint16_t sport, Bytes payload) P9_HOT_PATH;

  UdpProto* proto_;
  State state_ GUARDED_BY(lock_) = State::kIdle;
  UdpConvMetrics metrics_;  // atomic counters; no lock needed
};

class UdpProto : public ConvTable<UdpConv> {
 public:
  explicit UdpProto(IpStack* ip);
  ~UdpProto() override;

  std::string name() override { return "udp"; }

  IpStack* ip() { return ip_; }

 private:
  friend class UdpConv;

  std::unique_ptr<UdpConv> NewConv(int index) override {
    return std::make_unique<UdpConv>(this, index);
  }
  void Input(IpPacket&& pkt) P9_HOT_PATH;
  UdpConv* FindOrSpawn(const IpPacket& pkt, uint16_t sport, uint16_t dport);

  IpStack* ip_;
  PortAlloc ports_ GUARDED_BY(lock_);
};

}  // namespace plan9

#endif  // SRC_INET_UDP_H_
