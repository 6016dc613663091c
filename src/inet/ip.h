// The IP layer.
//
// Each node runs an IpStack: interfaces onto Ethernet devices (via ARP), a
// routing table, transport-protocol demux, and RFC-791 fragmentation and
// reassembly.  Gateways (ipgw= in ndb) forward between interfaces.  TCP, UDP and IL (§2.3/§3) register as protocol handlers.
//
// IP is a user of the Ethernet driver (§2.2), as 4.4BSD's ip_output is of
// its interface's if_output: it hears its packet types through the driver,
// and the driver frames and sends what IP hands it.
#ifndef SRC_INET_IP_H_
#define SRC_INET_IP_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/thread_annotations.h"
#include "src/inet/ipaddr.h"
#include "src/obs/context.h"
#include "src/task/qlock.h"

namespace plan9 {

class EtherProto;
struct EtherFrame;

// IP protocol numbers.
inline constexpr uint8_t kIpProtoTcp = 6;
inline constexpr uint8_t kIpProtoUdp = 17;
inline constexpr uint8_t kIpProtoIl = 40;  // Plan 9's IL rides protocol 40

inline constexpr uint16_t kEtherTypeIp = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;

// A parsed IP packet (post-reassembly when handed to protocols).
struct IpPacket {
  Ipv4Addr src;
  Ipv4Addr dst;
  uint8_t proto = 0;
  uint8_t ttl = 0;
  Bytes payload;
};

// RFC 1071 ones-complement checksum, used by IP/TCP/UDP/IL headers.
uint16_t InetChecksum(const uint8_t* data, size_t len, uint32_t seed = 0);

// Big-endian field helpers: IP and every transport header above it are in
// network byte order.
inline void Put16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}
inline uint16_t Get16(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }
inline void Put32(uint8_t* p, uint32_t v) {
  Put16(p, static_cast<uint16_t>(v >> 16));
  Put16(p + 2, static_cast<uint16_t>(v));
}
inline uint32_t Get32(const uint8_t* p) {
  return static_cast<uint32_t>(Get16(p)) << 16 | Get16(p + 2);
}

// Per-stack counters (net.ip.* in the node's /net/stats).
struct IpMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter packets_sent{this, "net.ip.packets-sent"};
  obs::Counter packets_received{this, "net.ip.packets-rcvd"};
  obs::Counter packets_forwarded{this, "net.ip.forwarded"};
  obs::Counter fragments_sent{this, "net.ip.frags-sent"};
  obs::Counter fragments_received{this, "net.ip.frags-rcvd"};
  obs::Counter reassembly_drops{this, "net.ip.reassembly-drops"};
  obs::Counter no_route{this, "net.ip.no-route"};
  obs::Counter bad_header{this, "net.ip.bad-header"};
  obs::Counter unknown_proto{this, "net.ip.unknown-proto"};
};

class IpStack {
 public:
  using ProtoHandler = std::function<void(IpPacket&&)>;

  // `obs` is the node's context, which the transports above share.
  explicit IpStack(obs::Context& obs = obs::Context::Root());
  // Unhooks from every interface's driver, which must outlive the stack.
  ~IpStack() MAY_BLOCK;

  obs::Context& obs() const { return obs_; }

  // --- interfaces ----------------------------------------------------------

  // Ethernet interface: hooks the stack into `ether` for the IP and ARP
  // frames sent to its station, and sends what the stack transmits.  A
  // crashed node's stack falls silent when its driver is unplugged.
  // Returns the interface index.
  int AddEtherInterface(EtherProto* ether, Ipv4Addr addr, Ipv4Addr mask);

  // --- routing -------------------------------------------------------------

  // Longest-prefix-match route; gateway 0 means directly attached.
  void AddRoute(Ipv4Addr dest, Ipv4Addr mask, Ipv4Addr gateway, int ifc_index);
  void SetDefaultGateway(Ipv4Addr gateway);
  void EnableForwarding(bool on) {
    QLockGuard guard(lock_);
    forwarding_ = on;
  }

  // --- transports ----------------------------------------------------------

  void RegisterProtocol(uint8_t proto, ProtoHandler handler);
  // Transports must unregister (then TimerWheel::Drain) before destruction.
  void UnregisterProtocol(uint8_t proto);

  // Send `payload` as protocol `proto`.  src may be unspecified: the stack
  // picks the outgoing interface's address.
  Status Send(uint8_t proto, Ipv4Addr src, Ipv4Addr dst, const Bytes& payload);

  // Source address the stack would use toward dst (for binding local ports).
  Result<Ipv4Addr> SourceFor(Ipv4Addr dst);

  // First configured address (identity for status files).
  Ipv4Addr PrimaryAddr();

  const IpMetrics& stats() const { return stats_; }

 private:
  struct Interface;
  struct Route;
  struct Reassembly;

  void EtherInput(size_t ifc_index, const EtherFrame& frame);
  void IpInput(const Bytes& raw);
  Status Output(Ipv4Addr src, Ipv4Addr dst, uint8_t proto, uint8_t ttl, const Bytes& payload);
  Status SendOnInterface(Interface& ifc, Ipv4Addr next_hop, Bytes ip_packet)
      REQUIRES(lock_);
  void ArpInput(size_t ifc_index, const EtherFrame& frame);
  Result<const Route*> Lookup(Ipv4Addr dst) REQUIRES(lock_);

  // Held across the driver's media send (sim.ether, then timer); the demux
  // path drops it before invoking protocol handlers.
  QLock lock_{"ip.stack"};
  std::vector<std::unique_ptr<Interface>> interfaces_ GUARDED_BY(lock_);
  std::vector<Route> routes_ GUARDED_BY(lock_);
  std::map<uint8_t, ProtoHandler> protocols_ GUARDED_BY(lock_);
  // Key: src<<32 | ident<<8 | proto.
  std::map<uint64_t, Reassembly> reassembly_ GUARDED_BY(lock_);
  uint16_t next_ident_ GUARDED_BY(lock_) = 1;
  bool forwarding_ GUARDED_BY(lock_) = false;
  obs::Context& obs_;
  IpMetrics stats_{obs_.metrics()};  // atomic counters; no lock needed
};

}  // namespace plan9

#endif  // SRC_INET_IP_H_
