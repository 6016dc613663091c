#include "src/world/node.h"

#include "src/obs/context.h"

namespace plan9 {

Node::Kernel::Kernel(const std::string& sysname, int generation)
    : obs(sysname, static_cast<uint64_t>(generation)), ip(obs), cyclone(obs), netdir(obs) {
  // Conventional directories every Plan 9 name space provides.
  (void)rootfs.MkdirAll("net");
  (void)rootfs.MkdirAll("dev");
  (void)rootfs.MkdirAll("srv");
  (void)rootfs.MkdirAll("lib/ndb");
  (void)rootfs.MkdirAll("n");
  (void)rootfs.MkdirAll("bin");
  (void)rootfs.WriteFile("dev/sysname", sysname);

  tcp = std::make_unique<TcpProto>(&ip);
  udp = std::make_unique<UdpProto>(&ip);
  il = std::make_unique<IlProto>(&ip);

  base_ns = std::make_shared<Namespace>(&rootfs);
  // "By convention, the protocol and device driver file systems are mounted
  // in a directory called /net."  Union-mounted so imports can add more.
  (void)base_ns->MountVfs(&netdir, "/net", kMAfter);
}

Node::Node(std::string sysname) : sysname_(std::move(sysname)) {
  k_ = std::make_shared<Kernel>(sysname_, 0);
}

// Destruction is graceful (services stop, protos tear down politely); only
// Crash() is abrupt.  The Kernel's member order makes teardown safe.
Node::~Node() = default;

void Node::Crash() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  obs::Context& root = obs::Context::Root();
  P9_TRACE(root.recorder(), obs::TraceKind::kChaos, sysname_, "crash",
           static_cast<uint64_t>(generation_));

  // 1. Unplug the devices first: the node falls silent on the wire before
  //    any software teardown runs, so nothing below can emit a polite
  //    goodbye.  IP sends through the ether drivers and falls silent too.
  for (auto& e : k_->ethers) {
    e->Unplug();
  }
  if (k_->dk != nullptr) {
    k_->dk->Unplug();
  }
  k_->cyclone.Unplug();

  // 2. Abandon every conversation abruptly.  Peers learn of the crash only
  //    through the wire: IL's deadman, TCP retransmit exhaustion, a 9P RPC
  //    deadline — never a FIN or close cell from here.
  k_->il->Abort("node crashed");
  k_->tcp->Abort("node crashed");
  k_->udp->Abort("node crashed");
  if (k_->dk != nullptr) {
    k_->dk->Abort("node crashed");
  }

  // 3. Services: their kprocs unblock because the conversations are dead
  //    (listen returns Hungup, reads see hangup), so Stop's join returns.
  k_->services.clear();

  // 4. Graveyard, don't free: surviving Procs hold the kernel's name space
  //    and channels into its objects.  Unplug above was idempotent, so the
  //    graveyard's destructors cannot detach a restarted kernel's media.
  graveyard_.push_back(std::move(k_));
  root.metrics().CounterNamed("chaos.node.crashes").Inc();
}

Status Node::Restart() {
  if (alive_) {
    return Error("node is alive");
  }
  generation_++;
  k_ = std::make_shared<Kernel>(sysname_, generation_);
  // Replay the machine spec in boot order: hardware, boot steps, services.
  replaying_ = true;
  for (auto& hw : hw_spec_) {
    hw(this);
  }
  for (auto& step : boot_steps_) {
    Status s = step(this);
    if (!s.ok()) {
      replaying_ = false;
      return s;
    }
  }
  for (auto& spec : service_specs_) {
    auto svc = spec.factory(this);
    if (!svc.ok()) {
      replaying_ = false;
      return svc.error();
    }
    k_->services.push_back(std::move(*svc));
  }
  replaying_ = false;
  alive_ = true;
  obs::Context& root = obs::Context::Root();
  P9_TRACE(root.recorder(), obs::TraceKind::kChaos, sysname_, "restart",
           static_cast<uint64_t>(generation_));
  root.metrics().CounterNamed("chaos.node.restarts").Inc();
  return Status::Ok();
}

void Node::AddIpProtoDirs() {
  // The IP protocol devices appear under /net only on machines with an IP
  // network — a Datakit-only terminal shows just /net/cs and /net/dk (§6.1).
  if (k_->ip_protos_added) {
    return;
  }
  k_->ip_protos_added = true;
  k_->netdir.Add(k_->tcp.get());
  k_->netdir.Add(k_->udp.get());
  k_->netdir.Add(k_->il.get());
}

void Node::DoAddEther(EtherSegment* segment, MacAddr mac, Ipv4Addr addr,
                      Ipv4Addr mask) {
  AddIpProtoDirs();
  std::string name = "ether" + std::to_string(k_->ethers.size());
  auto& ether = k_->ethers.emplace_back(
      std::make_unique<EtherProto>(segment, mac, std::move(name), k_->obs));
  k_->ip.AddEtherInterface(ether.get(), addr, mask);
  k_->netdir.Add(ether.get());
}

void Node::AddEther(EtherSegment* segment, MacAddr mac, Ipv4Addr addr,
                    Ipv4Addr mask) {
  if (!replaying_) {
    hw_spec_.push_back([segment, mac, addr, mask](Node* n) {
      n->DoAddEther(segment, mac, addr, mask);
    });
  }
  DoAddEther(segment, mac, addr, mask);
}

void Node::DoAddDatakit(DatakitSwitch* dk, const std::string& dk_name) {
  k_->dk_name = dk_name;
  k_->dk = std::make_unique<DkProto>(dk, dk_name, k_->obs);
  k_->netdir.Add(k_->dk.get());
}

void Node::AddDatakit(DatakitSwitch* dk, const std::string& dk_name) {
  if (!replaying_) {
    hw_spec_.push_back([dk, dk_name](Node* n) { n->DoAddDatakit(dk, dk_name); });
  }
  DoAddDatakit(dk, dk_name);
}

int Node::DoAddCyclone(Wire* wire, Wire::End end) {
  bool first = k_->cyclone.ConvCount() == 0 && k_->cyclone_link_count == 0;
  if (first) {
    k_->netdir.Add(&k_->cyclone);
  }
  k_->cyclone_link_count++;
  return k_->cyclone.AddLink(wire, end);
}

int Node::AddCyclone(Wire* wire, Wire::End end) {
  if (!replaying_) {
    hw_spec_.push_back([wire, end](Node* n) { (void)n->DoAddCyclone(wire, end); });
  }
  return DoAddCyclone(wire, end);
}

void Node::AddRoute(Ipv4Addr dest, Ipv4Addr mask, Ipv4Addr gateway) {
  if (!replaying_) {
    hw_spec_.push_back([dest, mask, gateway](Node* n) {
      n->k_->ip.AddRoute(dest, mask, gateway, 0);
    });
  }
  // Route out of whichever interface reaches the gateway.
  k_->ip.AddRoute(dest, mask, gateway, 0);
}

void Node::SetDefaultGateway(Ipv4Addr gw) {
  if (!replaying_) {
    hw_spec_.push_back([gw](Node* n) { n->k_->ip.SetDefaultGateway(gw); });
  }
  k_->ip.SetDefaultGateway(gw);
}

void Node::EnableForwarding() {
  if (!replaying_) {
    hw_spec_.push_back([](Node* n) { n->k_->ip.EnableForwarding(true); });
  }
  k_->ip.EnableForwarding(true);
}

void Node::RecordBootStep(std::function<Status(Node*)> step) {
  if (!replaying_) {
    boot_steps_.push_back(std::move(step));
  }
}

Status Node::StartService(const std::string& name, ServiceFactory factory) {
  if (!replaying_) {
    service_specs_.push_back(ServiceSpec{name, factory});
  }
  if (k_ == nullptr) {
    // Recorded; comes up with the next Restart.
    return Error("node is down");
  }
  auto svc = factory(this);
  if (!svc.ok()) {
    return svc.error();
  }
  k_->services.push_back(std::move(*svc));
  return Status::Ok();
}

void Node::Keep(std::shared_ptr<void> obj) {
  if (k_ != nullptr) {
    k_->kept.push_back(std::move(obj));
  }
}

const std::string& Node::dk_name() const {
  static const std::string kEmpty;
  return k_ ? k_->dk_name : kEmpty;
}

std::unique_ptr<Proc> Node::NewProc(const std::string& user) {
  if (k_ == nullptr) {
    return nullptr;
  }
  return std::make_unique<Proc>(k_->base_ns, user, k_->obs);
}

std::unique_ptr<Proc> Node::NewProcPrivate(const std::string& user) {
  if (k_ == nullptr) {
    return nullptr;
  }
  return std::make_unique<Proc>(k_->base_ns->Fork(), user, k_->obs);
}

}  // namespace plan9
