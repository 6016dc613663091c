#include "src/inet/udp.h"

#include <cstring>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

constexpr size_t kUdpHeaderSize = 8;

}  // namespace

// User writes become datagrams through the core's MessageModule: one write,
// one datagram, however the stream split it.
UdpConv::UdpConv(IpConvTable<UdpConv>* proto, int index)
    : IpConv(proto, index, "udp.conv", "udp"),
      metrics_(proto->obs().metrics()) {}

void UdpConv::ResetLocked() {
  state_ = State::kIdle;
  laddr_ = raddr_ = Ipv4Addr{};
  lport_ = rport_ = 0;
  metrics_.Reset();
}

Status UdpConv::CtlVerb(const std::vector<std::string>& words) {
  if (words[0] == "bind" && words.size() >= 2) {
    auto port = ParseU64(words[1]);
    if (!port || *port > 65535) {
      return Error(kErrBadArg);
    }
    QLockGuard guard(lock_);
    lport_ = static_cast<uint16_t>(*port);
    return Status::Ok();
  }
  return Error(kErrBadCtl);
}

Status UdpConv::WaitReady() {
  QLockGuard guard(lock_);
  if (state_ == State::kClosed || state_ == State::kIdle) {
    return Error(kErrHungup);
  }
  return Status::Ok();  // UDP has no handshake
}

std::string UdpConv::StatusText() {
  QLockGuard guard(lock_);
  const char* s = "Idle";
  switch (state_) {
    case State::kIdle:
      s = "Idle";
      break;
    case State::kConnected:
      s = "Connected";
      break;
    case State::kAnnounced:
      s = "Announced";
      break;
    case State::kClosed:
      s = "Closed";
      break;
  }
  return StrFormat("udp/%d %d %s %s!%u %s!%u tx %llu rx %llu\n", index_,
                   refs.load(), s, IpToString(ShownLocalLocked()).c_str(), lport_,
                   IpToString(raddr_).c_str(), rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()));
}

void UdpConv::Close() {
  // The slot goes back to idle at once; the core hangs up the stream.
  QLockGuard guard(lock_);
  ResetLocked();
  HangupLocked("");
}

void UdpConv::Abandon(const std::string& why) {
  QLockGuard guard(lock_);
  state_ = State::kClosed;
  HangupLocked(why);
}

Status UdpConv::SendMessage(Bytes payload) {
  Ipv4Addr src, dst;
  uint16_t sport, dport;
  {
    QLockGuard guard(lock_);
    if (state_ != State::kConnected) {
      return Error("not connected");
    }
    src = laddr_;
    dst = raddr_;
    sport = lport_;
    dport = rport_;
  }
  Bytes pkt(kUdpHeaderSize + payload.size());
  Put16(pkt.data(), sport);
  Put16(pkt.data() + 2, dport);
  Put16(pkt.data() + 4, static_cast<uint16_t>(pkt.size()));
  Put16(pkt.data() + 6, 0);  // checksum optional in v4; media are checksummed
  std::memcpy(pkt.data() + kUdpHeaderSize, payload.data(), payload.size());
  metrics_.dgrams_sent.Inc();
  metrics_.bytes_sent.Inc(payload.size());
  return ip_->Send(kIpProtoUdp, src, dst, pkt);
}

void UdpConv::Input(const IpPacket& pkt, uint16_t sport, Bytes payload) {
  Stream* stream;
  {
    QLockGuard guard(lock_);
    stream = stream_.get();
    if (state_ == State::kConnected) {
      // Connected conversations only hear their peer.
      if (!(pkt.src == raddr_) || sport != rport_) {
        return;
      }
    }
  }
  metrics_.dgrams_received.Inc();
  metrics_.bytes_received.Inc(payload.size());
  stream->DeliverUp(AllocDataBlock(std::move(payload), /*delim=*/true));
}

// UDP numbers nothing: the ISNs the shared layer draws for it go unused.
UdpProto::UdpProto(IpStack* ip)
    : IpConvTable(ip, kIpProtoUdp, "udp.proto", 0, &UdpProto::Input) {}

void UdpProto::Input(IpConvTable<UdpConv>& udp, IpPacket&& pkt) {
  P9_HOT_ROOT("udp.input");
  if (pkt.payload.size() < kUdpHeaderSize) {
    return;
  }
  const uint8_t* h = pkt.payload.data();
  uint16_t sport = Get16(h);
  uint16_t dport = Get16(h + 2);
  uint16_t len = Get16(h + 4);
  if (len < kUdpHeaderSize || len > pkt.payload.size()) {
    return;
  }
  auto [conv, listener] = udp.Demux(pkt.src, dport, sport);
  if (conv == nullptr && listener != nullptr) {
    // Unseen source on an announced port: a new call for Listen.
    conv = udp.Spawn(pkt, dport, sport, listener, 0);
  }
  if (conv == nullptr) {
    return;  // nobody is home: UDP stays silent
  }
  // Reuse the packet's buffer for the datagram payload.
  Bytes payload = std::move(pkt.payload);
  payload.resize(len);
  payload.erase(payload.begin(), payload.begin() + kUdpHeaderSize);
  conv->Input(pkt, sport, std::move(payload));
}

}  // namespace plan9
