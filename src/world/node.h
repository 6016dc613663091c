// Node — one Plan 9 "machine", with a crash/restart lifecycle.
//
// "A Plan 9 system comprises file servers, CPU servers and terminals"
// connected by "a hierarchy of network speeds".  A Node assembles the kernel
// pieces this library implements — root file system, IP stack with
// TCP/UDP/IL protocol devices, optional Ethernet / Datakit / Cyclone
// attachments, the connection server — into one bootable machine whose
// processes see the conventional name space:
//
//   /net/{tcp,udp,il}/...     protocol devices (§2.3)
//   /net/ether0/...           the Ethernet driver (§2.2, Figure 1)
//   /net/dk/...               URP/Datakit
//   /net/cyclone/...          point-to-point fiber (§7)
//   /net/cs, /net/dns         connection server & DNS (mounted by csdns)
//   /lib/ndb/local            the network database (§4.1)
//   /srv /dev /n              conventional mount points
//
// Many Nodes live in one process; a World (world.h) wires their media
// together according to an ndb description.
//
// Lifecycle.  All kernel state lives in an inner Kernel record so the
// machine can die and reboot:
//
//   * Crash() is abrupt: the devices are unplugged first (the node goes
//     silent on the wire; IP transmits through the ether drivers, so it
//     falls silent with them), then every conversation is abandoned without a
//     FIN, close cell or Rhangup; services' kprocs unblock because their
//     fds are dead and are joined.  Surviving nodes learn of the crash
//     only through the wire — IL's deadman, 9P's RPC deadline, a failed
//     dial — never through shared memory.
//   * Restart() builds a fresh Kernel and replays the recorded hardware
//     attachments, boot steps (BootNetwork records itself) and service
//     factories, so announced services come back under the same names and
//     importers can redial.
//   * The crashed Kernel moves to a graveyard rather than being freed:
//     processes the test still holds reference its name space, and their
//     channels point into kernel objects.  Unplug() is idempotent, so the
//     graveyard's eventual destruction cannot rip out the successor
//     kernel's registrations (switch host names, segment stations).
//
// Observability.  Each Kernel owns the machine's obs::Context (its
// /net/stats, /net/trace and /net/ctl), so a restart starts with fresh
// counters, an empty ring and sampling off, as a rebooted machine would.
// A Proc that outlives its kernel keeps the graveyard kernel's context.
// The machine's crashes and restarts are counted and recorded on the
// process root: a machine cannot count its own power failures.
#ifndef SRC_WORLD_NODE_H_
#define SRC_WORLD_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dev/cyclone.h"
#include "src/dev/devproto.h"
#include "src/dev/ether.h"
#include "src/dk/urp.h"
#include "src/inet/il.h"
#include "src/inet/ip.h"
#include "src/inet/tcp.h"
#include "src/inet/udp.h"
#include "src/ninep/ramfs.h"
#include "src/ns/namespace.h"
#include "src/ns/proc.h"
#include "src/sim/datakit.h"
#include "src/sim/ether_segment.h"
#include "src/sim/wire.h"
#include "src/svc/service.h"

namespace plan9 {

class Node {
 public:
  // Builds and starts one service instance; invoked at StartService time and
  // again on every Restart (the service must re-announce through the new
  // kernel's /net).
  using ServiceFactory = std::function<Result<std::unique_ptr<Service>>(Node*)>;

  explicit Node(std::string sysname);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& sysname() const { return sysname_; }

  // --- lifecycle ------------------------------------------------------------

  bool alive() const { return alive_; }
  // Incremented on every Restart; generation 0 is the original boot.
  int generation() const { return generation_; }

  // Power-fail the machine: no graceful shutdown, no goodbye on the wire.
  // Idempotent (crashing a dead node is a no-op).
  void Crash() MAY_BLOCK;
  // Reboot from the recorded spec: hardware, boot steps, services, in the
  // original order.  Fails if the node is still alive.
  Status Restart() MAY_BLOCK;

  // --- hardware attachment (call before running traffic) -------------------
  // Each attachment is recorded so Restart can replay it.

  // Ethernet interface: joins the segment and configures IP over it.
  void AddEther(EtherSegment* segment, MacAddr mac, Ipv4Addr addr,
                Ipv4Addr mask = Ipv4Addr{});
  // Datakit host attachment ("nj/astro/helix").
  void AddDatakit(DatakitSwitch* dk, const std::string& dk_name);
  // One end of a Cyclone fiber; returns the link number for `connect N`.
  int AddCyclone(Wire* wire, Wire::End end);
  // Static route / default gateway / packet forwarding (gateways, §4.1).
  void AddRoute(Ipv4Addr dest, Ipv4Addr mask, Ipv4Addr gateway);
  void SetDefaultGateway(Ipv4Addr gw);
  void EnableForwarding();

  // --- boot & services ------------------------------------------------------

  // Record a boot step for Restart to replay (after hardware, before
  // services).  Does not run it — BootNetwork runs the work itself and
  // records a step so the reboot reproduces it.
  void RecordBootStep(std::function<Status(Node*)> step);

  // Run `factory` now, keep the service until crash/destruction, and record
  // the spec so Restart re-announces it.
  Status StartService(const std::string& name, ServiceFactory factory) MAY_BLOCK;

  // --- processes ------------------------------------------------------------

  // A new process sharing the node's base name space.  Null if the node is
  // down (a dead machine runs nothing).
  std::unique_ptr<Proc> NewProc(const std::string& user = "glenda");
  // A new process with a *copy* of the base name space (rfork RFNAMEG).
  std::unique_ptr<Proc> NewProcPrivate(const std::string& user = "glenda");

  // --- guts (for services and tests) ----------------------------------------
  // Pointer accessors return null while the node is crashed.

  // Tie an object's lifetime to the current kernel (mounted Vfs instances,
  // service procs, shared databases).  Dies with the kernel's graveyard.
  void Keep(std::shared_ptr<void> obj);

  RamFs* rootfs() { return k_ ? &k_->rootfs : nullptr; }
  IpStack* ip() { return k_ ? &k_->ip : nullptr; }
  IlProto* il() { return k_ ? k_->il.get() : nullptr; }
  TcpProto* tcp() { return k_ ? k_->tcp.get() : nullptr; }
  UdpProto* udp() { return k_ ? k_->udp.get() : nullptr; }
  DkProto* dk() { return k_ ? k_->dk.get() : nullptr; }
  EtherProto* ether(size_t i = 0) {
    return k_ && i < k_->ethers.size() ? k_->ethers[i].get() : nullptr;
  }
  CycloneProto* cyclone() { return k_ ? &k_->cyclone : nullptr; }
  Namespace* base_ns() { return k_ ? k_->base_ns.get() : nullptr; }
  obs::Context* obs() { return k_ ? &k_->obs : nullptr; }
  Ipv4Addr addr() { return k_ ? k_->ip.PrimaryAddr() : Ipv4Addr{}; }
  const std::string& dk_name() const;

 private:
  // Everything that dies in a crash and is rebuilt by a restart.
  // Declaration order is destruction-critical: services stop first (their
  // kprocs use the stack), protocol devices before the IP stack they ride,
  // the IP stack before the ether drivers it is hooked into, and the
  // observability context after everything that counts into it.
  struct Kernel {
    Kernel(const std::string& sysname, int generation);

    obs::Context obs;
    RamFs rootfs;
    std::vector<std::unique_ptr<EtherProto>> ethers;
    IpStack ip;
    std::unique_ptr<TcpProto> tcp;
    std::unique_ptr<UdpProto> udp;
    std::unique_ptr<IlProto> il;
    std::unique_ptr<DkProto> dk;
    CycloneProto cyclone;
    int cyclone_link_count = 0;
    bool ip_protos_added = false;
    NetDirVfs netdir;
    std::string dk_name;
    std::shared_ptr<Namespace> base_ns;
    std::vector<std::shared_ptr<void>> kept;
    std::vector<std::unique_ptr<Service>> services;
  };

  struct ServiceSpec {
    std::string name;
    ServiceFactory factory;
  };

  void AddIpProtoDirs();
  // The Do* forms apply one spec step to the current kernel without
  // re-recording it (Restart replays through these).
  void DoAddEther(EtherSegment* segment, MacAddr mac, Ipv4Addr addr, Ipv4Addr mask);
  void DoAddDatakit(DatakitSwitch* dk, const std::string& dk_name);
  int DoAddCyclone(Wire* wire, Wire::End end);

  std::string sysname_;
  // Atomic: observers (the chaos status file, invariant checker) read these
  // from other threads while the chaos runner crashes/restarts the node.
  std::atomic<bool> alive_{true};
  std::atomic<int> generation_{0};
  // Restart replays recorded steps; those must not re-record themselves
  // (BootNetwork's replayed step calls SetDefaultGateway, for example).
  bool replaying_ = false;

  std::shared_ptr<Kernel> k_;
  // Crashed kernels; kept because surviving Procs hold their name spaces.
  std::vector<std::shared_ptr<Kernel>> graveyard_;

  // The machine's spec, replayed by Restart in this order.
  std::vector<std::function<void(Node*)>> hw_spec_;
  std::vector<std::function<Status(Node*)>> boot_steps_;
  std::vector<ServiceSpec> service_specs_;
};

}  // namespace plan9

#endif  // SRC_WORLD_NODE_H_
