#include "src/inet/ip.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace plan9 {
namespace {

constexpr size_t kIpHeaderSize = 20;
constexpr uint8_t kDefaultTtl = 64;
constexpr auto kReassemblyTimeout = std::chrono::seconds(5);

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
  Ipv4Addr addr;
  Ipv4Addr mask;
  size_t mtu = 1500;
  EtherSegment* segment = nullptr;
  EtherSegment::StationId station = 0;
  MacAddr mac{};
  std::map<uint32_t, MacAddr> arp_table;
  std::map<uint32_t, std::vector<Bytes>> arp_pending;  // packets awaiting resolution
};

struct IpStack::Route {
  Ipv4Addr dest;
  Ipv4Addr mask;
  Ipv4Addr gateway;  // 0 = directly attached
  int ifc_index;
};

struct IpStack::Reassembly {
  TimerWheel::Clock::time_point deadline;
  std::map<uint16_t, Bytes> fragments;  // offset(bytes) -> data
  bool have_last = false;
  size_t total_len = 0;
  Ipv4Addr src, dst;
  uint8_t proto = 0, ttl = 0;
};

IpStack::IpStack(obs::Context& obs)
    : obs_(obs), alive_(std::make_shared<std::atomic<bool>>(true)) {
  auto alive = alive_;
  // Periodic reassembly-buffer sweep.
  std::function<void()> arm = [this, alive]() {
    if (!alive->load()) {
      return;
    }
    SweepReassembly();
  };
  sweep_timer_ = TimerWheel::Default().Schedule(kReassemblyTimeout, arm);
}

IpStack::~IpStack() { Unplug(); }

void IpStack::Unplug() {
  alive_->store(false);
  TimerId sweep;
  {
    QLockGuard guard(lock_);
    sweep = sweep_timer_;
    sweep_timer_ = kNoTimer;
  }
  if (sweep != kNoTimer) {
    TimerWheel::Default().Cancel(sweep);
  }
  {
    QLockGuard guard(lock_);
    for (auto& ifc : interfaces_) {
      if (ifc->segment != nullptr) {
        ifc->segment->Detach(ifc->station);
        // Null the medium so a later Unplug (or the destructor) cannot detach
        // again — after a crashed kernel is graveyarded, the same station id
        // may belong to the restarted kernel.
        ifc->segment = nullptr;
      }
    }
  }
  // Wait out any delivery callback that copied our receive hook before the
  // detach above; after Drain nothing can re-enter this stack.
  TimerWheel::Default().Drain();
}

void IpStack::SweepReassembly() {
  {
    QLockGuard guard(lock_);
    auto now = TimerWheel::Clock::now();
    for (auto it = reassembly_.begin(); it != reassembly_.end();) {
      if (it->second.deadline < now) {
        stats_.reassembly_drops.Inc();
        it = reassembly_.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto alive = alive_;
  TimerId next = TimerWheel::Default().Schedule(kReassemblyTimeout, [this, alive] {
    if (alive->load()) {
      SweepReassembly();
    }
  });
  QLockGuard guard(lock_);
  sweep_timer_ = next;
}

int IpStack::AddEtherInterface(EtherSegment* segment, MacAddr mac, Ipv4Addr addr,
                               Ipv4Addr mask) {
  auto ifc = std::make_unique<Interface>();
  ifc->segment = segment;
  ifc->mac = mac;
  ifc->addr = addr;
  ifc->mask = mask.IsUnspecified() ? ClassMask(addr) : mask;
  ifc->mtu = 1500;
  int index;
  {
    QLockGuard guard(lock_);
    index = static_cast<int>(interfaces_.size());
    interfaces_.push_back(std::move(ifc));
    // Connected route for the interface's subnet.
    routes_.push_back(Route{Ipv4Addr{addr.v & interfaces_.back()->mask.v},
                            interfaces_.back()->mask, Ipv4Addr{}, index});
  }
  auto alive = alive_;
  auto station = segment->Attach(mac, [this, alive, index](const EtherFrame& frame) {
    if (*alive) {
      EtherInput(static_cast<size_t>(index), frame);
    }
  });
  {
    QLockGuard guard(lock_);
    interfaces_[static_cast<size_t>(index)]->station = station;
  }
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
    P9_RETURN_IF_ERROR(SendOnInterface(ifc, next_hop, pkt));
    offset += chunk;
  } while (offset < payload.size());
  stats_.packets_sent.Inc();
  return Status::Ok();
}

Status IpStack::SendOnInterface(Interface& ifc, Ipv4Addr next_hop, const Bytes& ip_packet) {
  // Caller holds lock_.
  if (ifc.segment == nullptr) {
    // Unplugged (crashed node): the packet silently dies at the dead NIC.
    return Error("interface unplugged");
  }
  // Resolve next_hop via ARP.
  auto arp = ifc.arp_table.find(next_hop.v);
  if (arp != ifc.arp_table.end()) {
    EtherFrame frame;
    frame.dst = arp->second;
    frame.src = ifc.mac;
    frame.type = kEtherTypeIp;
    frame.payload = ip_packet;
    return ifc.segment->Send(frame);
  }
  // Queue the packet and broadcast an ARP request.
  auto& pending = ifc.arp_pending[next_hop.v];
  if (pending.size() < 16) {
    pending.push_back(ip_packet);
  }
  Bytes arp_req(28);
  uint8_t* a = arp_req.data();
  Put16(a, 1);                 // htype ethernet
  Put16(a + 2, kEtherTypeIp);  // ptype
  a[4] = 6;
  a[5] = 4;
  Put16(a + 6, 1);  // op: request
  std::memcpy(a + 8, ifc.mac.data(), 6);
  Put32(a + 14, ifc.addr.v);
  std::memset(a + 18, 0, 6);
  Put32(a + 24, next_hop.v);
  EtherFrame frame;
  frame.dst = kEtherBroadcast;
  frame.src = ifc.mac;
  frame.type = kEtherTypeArp;
  frame.payload = std::move(arp_req);
  return ifc.segment->Send(frame);
}

void IpStack::EtherInput(size_t ifc_index, const EtherFrame& frame) {
  if (frame.type == kEtherTypeArp) {
    ArpInput(ifc_index, frame);
    return;
  }
  if (frame.type == kEtherTypeIp) {
    IpInput(ifc_index, frame.payload);
  }
}

void IpStack::ArpInput(size_t ifc_index, const EtherFrame& frame) {
  if (frame.payload.size() < 28) {
    return;
  }
  const uint8_t* a = frame.payload.data();
  uint16_t op = Get16(a + 6);
  MacAddr sender_mac;
  std::memcpy(sender_mac.data(), a + 8, 6);
  Ipv4Addr sender_ip{Get32(a + 14)};
  Ipv4Addr target_ip{Get32(a + 24)};

  std::vector<Bytes> flush;
  EtherSegment* segment = nullptr;
  EtherFrame reply;
  bool send_reply = false;
  {
    QLockGuard guard(lock_);
    Interface& ifc = *interfaces_[ifc_index];
    // Learn the sender's binding and flush anything queued on it.
    ifc.arp_table[sender_ip.v] = sender_mac;
    auto pend = ifc.arp_pending.find(sender_ip.v);
    if (pend != ifc.arp_pending.end()) {
      flush = std::move(pend->second);
      ifc.arp_pending.erase(pend);
    }
    if (op == 1 && target_ip == ifc.addr) {
      Bytes arp_rep(28);
      uint8_t* r = arp_rep.data();
      Put16(r, 1);
      Put16(r + 2, kEtherTypeIp);
      r[4] = 6;
      r[5] = 4;
      Put16(r + 6, 2);  // reply
      std::memcpy(r + 8, ifc.mac.data(), 6);
      Put32(r + 14, ifc.addr.v);
      std::memcpy(r + 18, sender_mac.data(), 6);
      Put32(r + 24, sender_ip.v);
      reply.dst = sender_mac;
      reply.src = ifc.mac;
      reply.type = kEtherTypeArp;
      reply.payload = std::move(arp_rep);
      segment = ifc.segment;
      send_reply = true;
    }
    if (!flush.empty()) {
      EtherFrame out;
      out.src = ifc.mac;
      out.dst = sender_mac;
      out.type = kEtherTypeIp;
      for (auto& pkt : flush) {
        out.payload = std::move(pkt);
        (void)ifc.segment->Send(out);
      }
      flush.clear();
    }
  }
  if (send_reply && segment != nullptr) {
    (void)segment->Send(reply);
  }
}

void IpStack::IpInput(size_t ifc_index, const Bytes& raw) {
  if (raw.size() < kIpHeaderSize) {
    QLockGuard guard(lock_);
    stats_.bad_header.Inc();
    return;
  }
  const uint8_t* h = raw.data();
  if ((h[0] >> 4) != 4 || (h[0] & 0xf) != 5) {
    QLockGuard guard(lock_);
    stats_.bad_header.Inc();
    return;
  }
  uint16_t total_len = Get16(h + 2);
  if (total_len < kIpHeaderSize || total_len > raw.size()) {
    QLockGuard guard(lock_);
    stats_.bad_header.Inc();
    return;
  }
  if (InetChecksum(h, kIpHeaderSize) != 0) {
    QLockGuard guard(lock_);
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

  bool for_us = false;
  {
    QLockGuard guard(lock_);
    for (auto& ifc : interfaces_) {
      if (ifc->addr == pkt.dst) {
        for_us = true;
        break;
      }
    }
    if (pkt.dst.IsBroadcast()) {
      for_us = true;
    }
  }

  if (!for_us) {
    // Forward if we're a gateway.
    bool fwd;
    {
      QLockGuard guard(lock_);
      fwd = forwarding_;
    }
    if (fwd && pkt.ttl > 1) {
      {
        QLockGuard guard(lock_);
        stats_.packets_forwarded.Inc();
      }
      (void)Output(pkt.src, pkt.dst, pkt.proto, static_cast<uint8_t>(pkt.ttl - 1),
                   pkt.payload);
    }
    return;
  }

  if (more_frags || frag_off != 0) {
    // Reassemble.
    QLockGuard guard(lock_);
    stats_.fragments_received.Inc();
    uint64_t key = static_cast<uint64_t>(pkt.src.v) << 32 |
                   static_cast<uint64_t>(ident) << 8 | pkt.proto;
    Reassembly& re = reassembly_[key];
    re.deadline = TimerWheel::Clock::now() + kReassemblyTimeout;
    re.src = pkt.src;
    re.dst = pkt.dst;
    re.proto = pkt.proto;
    re.ttl = pkt.ttl;
    size_t frag_len = pkt.payload.size();
    re.fragments[frag_off] = std::move(pkt.payload);
    if (!more_frags) {
      re.have_last = true;
      re.total_len = frag_off + frag_len;
    }
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
    IpPacket whole;
    whole.src = re.src;
    whole.dst = re.dst;
    whole.proto = re.proto;
    whole.ttl = re.ttl;
    whole.payload.reserve(re.total_len);
    for (auto& [off, data] : re.fragments) {
      whole.payload.insert(whole.payload.end(), data.begin(), data.end());
    }
    reassembly_.erase(key);
    guard.Unlock();
    Deliver(std::move(whole));
    return;
  }

  Deliver(std::move(pkt));
}

void IpStack::Deliver(IpPacket&& pkt) {
  ProtoHandler handler;
  {
    QLockGuard guard(lock_);
    stats_.packets_received.Inc();
    auto it = protocols_.find(pkt.proto);
    if (it == protocols_.end()) {
      stats_.unknown_proto.Inc();
      return;
    }
    handler = it->second;
  }
  handler(std::move(pkt));
}

}  // namespace plan9
