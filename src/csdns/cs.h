// CS — the connection server (§4.2).
//
// "On each system a user level connection server process, CS, translates
// symbolic names to addresses.  CS uses information about available
// networks, the network database, and other servers (such as DNS) to
// translate names.  CS is a file server serving a single file, /net/cs.
// A client writes a symbolic name to /net/cs then reads one line for each
// matching destination reachable from this system.  The lines are of the
// form `filename message`."
//
// Meta-names (§4.2):
//   * network "net" selects every network in common between source and
//     destination supporting the service;
//   * host "$attr" searches the database for attr starting at the source
//     system's entry, then its subnetwork, then its network.
#ifndef SRC_CSDNS_CS_H_
#define SRC_CSDNS_CS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/csdns/dns.h"
#include "src/csdns/queryfs.h"
#include "src/inet/ipaddr.h"
#include "src/ndb/ndb.h"
#include "src/obs/context.h"

namespace plan9 {

struct CsConfig {
  // The node's context: translations are spans there.
  obs::Context* obs = &obs::Context::Root();
  Ipv4Addr self_ip;     // source host for $attr walks
  std::string dk_name;  // this host's Datakit address ("" = none)
  // Networks this machine can reach, in preference order.  The paper's
  // machines prefer IL ("IL is our protocol of choice"), then Datakit,
  // then TCP.
  struct Net {
    std::string proto;  // "il", "tcp", "udp", "dk"
    bool is_ip;
  };
  std::vector<Net> nets;
  const Ndb* db = nullptr;
  // Optional resolver for unknown domain names ("For domain names however,
  // CS first consults... DNS").
  std::shared_ptr<DnsResolver> dns;
};

// Pure translation engine (separately testable from the file plumbing).
class CsTranslator {
 public:
  explicit CsTranslator(CsConfig config) : config_(std::move(config)) {}

  // One query ("net!helix!9fs" or "announce tcp!*!echo") -> result lines.
  Result<std::vector<std::string>> Query(const std::string& query) const;

  const CsConfig& config() const { return config_; }

 private:
  Result<std::vector<std::string>> Translate(const std::string& dest) const;
  Result<std::vector<std::string>> TranslateAnnounce(const std::string& addr) const;
  // Resolve `host` to addresses usable on an IP network.
  std::vector<std::string> IpAddrsFor(const std::string& host) const;
  // Resolve `host` to a Datakit address, if it has one.
  std::vector<std::string> DkAddrsFor(const std::string& host) const;
  // Expand "$attr" via the source-host walk; otherwise {host}.
  std::vector<std::string> ExpandHost(const std::string& host) const;

  CsConfig config_;
};

// /net/cs: the query file answered by a CsTranslator.
class CsVfs : public QueryVfs {
 public:
  explicit CsVfs(CsConfig config);
};

}  // namespace plan9

#endif  // SRC_CSDNS_CS_H_
