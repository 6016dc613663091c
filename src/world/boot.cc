#include "src/world/boot.h"

namespace plan9 {
namespace {

// The actual boot work, shared by the first boot and every Restart replay.
Status DoBootNetwork(Node* node, const std::shared_ptr<Ndb>& db,
                     const std::string& ndb_text, const BootOptions& opts) {
  if (!ndb_text.empty()) {
    P9_RETURN_IF_ERROR(node->rootfs()->WriteFile("lib/ndb/local", ndb_text));
  }

  // Default gateway from the subnet entry, as the paper's examples configure
  // ("ipnet=unix-room ip=135.104.117.0  ipgw=135.104.117.1").
  if (!node->addr().IsUnspecified()) {
    auto gws = db->IpInfo(node->addr(), "ipgw");
    if (!gws.empty()) {
      auto gw = IpFromString(gws[0]);
      if (gw.ok() && !(*gw == node->addr())) {
        node->SetDefaultGateway(*gw);
      }
    }
  }

  // DNS resolver (user-level, dials upstream through this node's /net).
  std::shared_ptr<DnsResolver> resolver;
  auto dns_proc = std::shared_ptr<Proc>(node->NewProc("network").release());
  resolver = std::make_shared<DnsResolver>(dns_proc.get(), opts.dns_upstream, db.get());
  auto dns_vfs = std::make_shared<DnsVfs>(resolver);
  node->Keep(dns_proc);
  node->Keep(dns_vfs);
  P9_RETURN_IF_ERROR(node->base_ns()->MountVfs(dns_vfs.get(), "/net", kMAfter));

  // Connection server.
  CsConfig config;
  config.obs = node->obs();
  config.self_ip = node->addr();
  config.dk_name = node->dk_name();
  config.db = db.get();
  config.dns = resolver;
  bool has_ip = !node->addr().IsUnspecified();
  if (has_ip) {
    config.nets.push_back(CsConfig::Net{"il", true});
  }
  if (!node->dk_name().empty()) {
    config.nets.push_back(CsConfig::Net{"dk", false});
  }
  if (has_ip) {
    config.nets.push_back(CsConfig::Net{"tcp", true});
    config.nets.push_back(CsConfig::Net{"udp", true});
  }
  auto cs_vfs = std::make_shared<CsVfs>(std::move(config));
  node->Keep(cs_vfs);
  node->Keep(db);
  P9_RETURN_IF_ERROR(node->base_ns()->MountVfs(cs_vfs.get(), "/net", kMAfter));

  return Status::Ok();
}

}  // namespace

Status BootNetwork(Node* node, std::shared_ptr<Ndb> db, const std::string& ndb_text,
                   BootOptions opts) {
  // Record the step so Restart can rerun the boot against the fresh kernel
  // (new CS/DNS instances mounted on the new name space), then run it now.
  node->RecordBootStep([db, ndb_text, opts](Node* n) {
    return DoBootNetwork(n, db, ndb_text, opts);
  });
  return DoBootNetwork(node, db, ndb_text, opts);
}

}  // namespace plan9
