#include "src/inet/ip.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/dev/ether.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {

constexpr size_t kIpHeaderSize = 20;
constexpr uint8_t kDefaultTtl = 64;
constexpr auto kReassemblyTimeout = std::chrono::seconds(5);

// ARP for IPv4 over Ethernet (RFC 826).
constexpr size_t kArpSize = 28;
constexpr uint16_t kArpRequest = 1;
constexpr uint16_t kArpReply = 2;

Bytes ArpPacket(uint16_t op, const MacAddr& sender_mac, Ipv4Addr sender_ip,
                const MacAddr& target_mac, Ipv4Addr target_ip) {
  Bytes arp(kArpSize);
  uint8_t* a = arp.data();
  Put16(a, 1);                 // htype ethernet
  Put16(a + 2, kEtherTypeIp);  // ptype
  a[4] = 6;
  a[5] = 4;
  Put16(a + 6, op);
  std::memcpy(a + 8, sender_mac.data(), 6);
  Put32(a + 14, sender_ip.v);
  std::memcpy(a + 18, target_mac.data(), 6);
  Put32(a + 24, target_ip.v);
  return arp;
}

}  // namespace

uint16_t InetChecksum(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t sum = seed;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < len) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

struct IpStack::Interface {
  EtherProto* ether = nullptr;
  Ipv4Addr addr;
  Ipv4Addr mask;
  size_t mtu = 1500;
  std::map<uint32_t, MacAddr> arp_table;
  std::map<uint32_t, std::vector<Bytes>> arp_pending;  // packets awaiting resolution
};

struct IpStack::Route {
  Ipv4Addr dest;
  Ipv4Addr mask;
  Ipv4Addr gateway;  // 0 = directly attached
  int ifc_index;
};

// A datagram's fragments so far; the fragment completing it lends the whole
// its header fields.
struct IpStack::Reassembly {
  TimerWheel::Clock::time_point deadline;
  std::map<uint16_t, Bytes> fragments;  // offset(bytes) -> data
  bool have_last = false;
  size_t total_len = 0;
};

IpStack::IpStack(obs::Context& obs) : obs_(obs) {}

IpStack::~IpStack() {
  std::vector<EtherProto*> ethers;
  {
    QLockGuard guard(lock_);
    for (auto& ifc : interfaces_) {
      ethers.push_back(ifc->ether);
    }
  }
  for (EtherProto* ether : ethers) {
    ether->Hook(nullptr);
  }
  // Wait out any delivery that copied our hook before the unhook above;
  // after Drain nothing can re-enter this stack.
  TimerWheel::Default().Drain();
}

int IpStack::AddEtherInterface(EtherProto* ether, Ipv4Addr addr, Ipv4Addr mask) {
  auto ifc = std::make_unique<Interface>();
  ifc->ether = ether;
  ifc->addr = addr;
  ifc->mask = mask.IsUnspecified() ? ClassMask(addr) : mask;
  int index;
  {
    QLockGuard guard(lock_);
    index = static_cast<int>(interfaces_.size());
    // Connected route for the interface's subnet.
    routes_.push_back(Route{Ipv4Addr{addr.v & ifc->mask.v}, ifc->mask, Ipv4Addr{}, index});
    interfaces_.push_back(std::move(ifc));
  }
  ether->Hook([this, index](const EtherFrame& frame) {
    EtherInput(static_cast<size_t>(index), frame);
  });
  return index;
}

void IpStack::AddRoute(Ipv4Addr dest, Ipv4Addr mask, Ipv4Addr gateway, int ifc_index) {
  QLockGuard guard(lock_);
  routes_.push_back(Route{Ipv4Addr{dest.v & mask.v}, mask, gateway, ifc_index});
}

void IpStack::SetDefaultGateway(Ipv4Addr gateway) {
  // Route the gateway itself first (must be on a connected net).
  QLockGuard guard(lock_);
  for (size_t i = 0; i < interfaces_.size(); i++) {
    auto& ifc = interfaces_[i];
    if (SameNet(gateway, ifc->addr, ifc->mask)) {
      routes_.push_back(Route{Ipv4Addr{}, Ipv4Addr{}, gateway, static_cast<int>(i)});
      return;
    }
  }
}

void IpStack::RegisterProtocol(uint8_t proto, ProtoHandler handler) {
  QLockGuard guard(lock_);
  protocols_[proto] = std::move(handler);
}

void IpStack::UnregisterProtocol(uint8_t proto) {
  QLockGuard guard(lock_);
  protocols_.erase(proto);
}

Result<const IpStack::Route*> IpStack::Lookup(Ipv4Addr dst) {
  // Caller holds lock_.  Longest prefix match.
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if ((dst.v & r.mask.v) == r.dest.v) {
      if (best == nullptr || r.mask.v > best->mask.v ||
          (r.mask.v == best->mask.v && best->gateway.IsUnspecified() == false &&
           r.gateway.IsUnspecified())) {
        best = &r;
      }
    }
  }
  if (best == nullptr) {
    return Error(kErrNoRoute);
  }
  return best;
}

Result<Ipv4Addr> IpStack::SourceFor(Ipv4Addr dst) {
  QLockGuard guard(lock_);
  auto route = Lookup(dst);
  if (!route.ok()) {
    return route.error();
  }
  return interfaces_[static_cast<size_t>((*route)->ifc_index)]->addr;
}

Ipv4Addr IpStack::PrimaryAddr() {
  QLockGuard guard(lock_);
  return interfaces_.empty() ? Ipv4Addr{} : interfaces_[0]->addr;
}

Status IpStack::Send(uint8_t proto, Ipv4Addr src, Ipv4Addr dst, const Bytes& payload) {
  return Output(src, dst, proto, kDefaultTtl, payload);
}

Status IpStack::Output(Ipv4Addr src, Ipv4Addr dst, uint8_t proto, uint8_t ttl,
                       const Bytes& payload) {
  QLockGuard guard(lock_);
  auto route = Lookup(dst);
  if (!route.ok()) {
    stats_.no_route.Inc();
    return route.error();
  }
  Interface& ifc = *interfaces_[static_cast<size_t>((*route)->ifc_index)];
  if (src.IsUnspecified()) {
    src = ifc.addr;
  }
  Ipv4Addr next_hop = (*route)->gateway.IsUnspecified() ? dst : (*route)->gateway;

  // Fragment if needed.
  size_t max_data = (ifc.mtu - kIpHeaderSize) & ~size_t{7};
  uint16_t ident = next_ident_++;
  size_t offset = 0;
  do {
    size_t chunk = std::min(payload.size() - offset, max_data);
    bool more = offset + chunk < payload.size();
    Bytes pkt(kIpHeaderSize + chunk);
    uint8_t* h = pkt.data();
    h[0] = 0x45;  // v4, 20-byte header
    h[1] = 0;
    Put16(h + 2, static_cast<uint16_t>(pkt.size()));
    Put16(h + 4, ident);
    uint16_t frag = static_cast<uint16_t>(offset / 8);
    if (more) {
      frag |= 0x2000;  // MF
    }
    Put16(h + 6, frag);
    h[8] = ttl;
    h[9] = proto;
    Put16(h + 10, 0);
    Put32(h + 12, src.v);
    Put32(h + 16, dst.v);
    Put16(h + 10, InetChecksum(h, kIpHeaderSize));
    std::memcpy(pkt.data() + kIpHeaderSize, payload.data() + offset, chunk);
    if (more || offset != 0) {
      stats_.fragments_sent.Inc();
    }
    P9_RETURN_IF_ERROR(SendOnInterface(ifc, next_hop, std::move(pkt)));
    offset += chunk;
  } while (offset < payload.size());
  stats_.packets_sent.Inc();
  return Status::Ok();
}

Status IpStack::SendOnInterface(Interface& ifc, Ipv4Addr next_hop, Bytes ip_packet) {
  auto arp = ifc.arp_table.find(next_hop.v);
  if (arp != ifc.arp_table.end()) {
    return ifc.ether->Transmit(arp->second, kEtherTypeIp, std::move(ip_packet));
  }
  // Queue the packet and broadcast an ARP request.
  auto& pending = ifc.arp_pending[next_hop.v];
  if (pending.size() < 16) {
    pending.push_back(std::move(ip_packet));
  }
  return ifc.ether->Transmit(
      kEtherBroadcast, kEtherTypeArp,
      ArpPacket(kArpRequest, ifc.ether->mac(), ifc.addr, MacAddr{}, next_hop));
}

void IpStack::EtherInput(size_t ifc_index, const EtherFrame& frame) {
  if (frame.type == kEtherTypeArp) {
    ArpInput(ifc_index, frame);
  } else if (frame.type == kEtherTypeIp) {
    IpInput(frame.payload);
  }
}

void IpStack::ArpInput(size_t ifc_index, const EtherFrame& frame) {
  if (frame.payload.size() < kArpSize) {
    return;
  }
  const uint8_t* a = frame.payload.data();
  uint16_t op = Get16(a + 6);
  MacAddr sender_mac;
  std::memcpy(sender_mac.data(), a + 8, 6);
  Ipv4Addr sender_ip{Get32(a + 14)};
  Ipv4Addr target_ip{Get32(a + 24)};

  QLockGuard guard(lock_);
  Interface& ifc = *interfaces_[ifc_index];
  // Learn the sender's binding and flush anything queued on it.
  ifc.arp_table[sender_ip.v] = sender_mac;
  auto pend = ifc.arp_pending.find(sender_ip.v);
  if (pend != ifc.arp_pending.end()) {
    for (auto& pkt : pend->second) {
      (void)ifc.ether->Transmit(sender_mac, kEtherTypeIp, std::move(pkt));
    }
    ifc.arp_pending.erase(pend);
  }
  if (op == kArpRequest && target_ip == ifc.addr) {
    (void)ifc.ether->Transmit(
        sender_mac, kEtherTypeArp,
        ArpPacket(kArpReply, ifc.ether->mac(), ifc.addr, sender_mac, sender_ip));
  }
}

void IpStack::IpInput(const Bytes& raw) {
  const uint8_t* h = raw.data();
  uint16_t total_len = raw.size() < kIpHeaderSize ? 0 : Get16(h + 2);
  // Version 4 with a bare 20-byte header, a length that fits the frame, and
  // a sound checksum.
  if (total_len < kIpHeaderSize || total_len > raw.size() || h[0] != 0x45 ||
      InetChecksum(h, kIpHeaderSize) != 0) {
    stats_.bad_header.Inc();
    return;
  }
  uint16_t ident = Get16(h + 4);
  uint16_t frag = Get16(h + 6);
  bool more_frags = (frag & 0x2000) != 0;
  uint16_t frag_off = static_cast<uint16_t>((frag & 0x1fff) * 8);

  IpPacket pkt;
  pkt.ttl = h[8];
  pkt.proto = h[9];
  pkt.src = Ipv4Addr{Get32(h + 12)};
  pkt.dst = Ipv4Addr{Get32(h + 16)};
  pkt.payload.assign(raw.begin() + kIpHeaderSize, raw.begin() + total_len);

  QLockGuard guard(lock_);
  bool for_us = pkt.dst.IsBroadcast() ||
                std::any_of(interfaces_.begin(), interfaces_.end(),
                            [&pkt](const auto& ifc) { return ifc->addr == pkt.dst; });
  if (!for_us) {
    // Forward if we're a gateway.
    bool forward = forwarding_ && pkt.ttl > 1;
    guard.Unlock();
    if (forward) {
      stats_.packets_forwarded.Inc();
      (void)Output(pkt.src, pkt.dst, pkt.proto, static_cast<uint8_t>(pkt.ttl - 1),
                   pkt.payload);
    }
    return;
  }

  if (more_frags || frag_off != 0) {
    // Reassemble.  Stale reassemblies age out as new fragments arrive, as
    // Plan 9's ipreassemble does.
    stats_.fragments_received.Inc();
    auto now = TimerWheel::Clock::now();
    stats_.reassembly_drops.Inc(std::erase_if(
        reassembly_, [now](const auto& entry) { return entry.second.deadline < now; }));
    uint64_t key = static_cast<uint64_t>(pkt.src.v) << 32 |
                   static_cast<uint64_t>(ident) << 8 | pkt.proto;
    Reassembly& re = reassembly_[key];
    re.deadline = now + kReassemblyTimeout;
    if (!more_frags) {
      re.have_last = true;
      re.total_len = frag_off + pkt.payload.size();
    }
    re.fragments[frag_off] = std::move(pkt.payload);
    if (!re.have_last) {
      return;
    }
    // Check contiguity.
    size_t next = 0;
    for (auto& [off, data] : re.fragments) {
      if (off != next) {
        return;  // hole remains
      }
      next = off + data.size();
    }
    if (next != re.total_len) {
      return;
    }
    pkt.payload.clear();
    pkt.payload.reserve(re.total_len);
    for (auto& [off, data] : re.fragments) {
      pkt.payload.insert(pkt.payload.end(), data.begin(), data.end());
    }
    reassembly_.erase(key);
  }

  auto it = protocols_.find(pkt.proto);
  ProtoHandler handler = it != protocols_.end() ? it->second : nullptr;
  guard.Unlock();
  stats_.packets_received.Inc();
  if (!handler) {
    stats_.unknown_proto.Inc();
    return;
  }
  handler(std::move(pkt));
}

}  // namespace plan9
