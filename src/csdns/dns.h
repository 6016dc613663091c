// DNS — the domain name server (§4.2).
//
// "Like CS, the domain name server is a user level process providing one
// file, /net/dns.  A client writes a request of the form domain-name type
// ... The client reads /net/dns to retrieve the records.  Like other domain
// name servers, DNS caches information learned from the network."
//
// The resolver asks an upstream DNS service (a user-level process on
// another node answering from *its* ndb over UDP — our stand-in for "a
// recursive query through the Internet domain name system"), caches
// answers, and falls back to the local ndb when no server is reachable
// ("If no DNS is reachable, CS relies on its own tables").
#ifndef SRC_CSDNS_DNS_H_
#define SRC_CSDNS_DNS_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/csdns/queryfs.h"
#include "src/ndb/ndb.h"
#include "src/ns/proc.h"
#include "src/obs/metrics.h"
#include "src/svc/service.h"
#include "src/task/qlock.h"

namespace plan9 {

class DnsResolver {
 public:
  // `proc` is the user-level process context used to dial the upstream
  // server; `upstream` is a dial string ("udp!135.104.9.6!53"), empty for
  // none; `local_db` is the fallback (not owned, may be null).
  DnsResolver(Proc* proc, std::string upstream, const Ndb* local_db);

  // Resolve domain -> dotted-quad strings.  type is "ip" for now (the only
  // record type the 1993 paper exercises by name).
  Result<std::vector<std::string>> Resolve(const std::string& domain,
                                           const std::string& type = "ip");

 private:
  struct CacheLine {
    std::vector<std::string> values;
    std::chrono::steady_clock::time_point expires;
  };

  Result<std::vector<std::string>> AskUpstream(const std::string& domain,
                                               const std::string& type);

  // In the node's /net/stats, next to the protocols'.
  struct Stats : obs::MetricSet {
    using MetricSet::MetricSet;
    obs::Counter cache_hits{this, "net.dns.cache-hits"};
    obs::Counter upstream_queries{this, "net.dns.upstream-queries"};
  };

  Proc* proc_;
  std::string upstream_;
  const Ndb* local_db_;
  QLock lock_{"dns.cache"};
  std::map<std::string, CacheLine> cache_ GUARDED_BY(lock_);
  Stats stats_;
};

// /net/dns: the query file answered by a DnsResolver.  A query is
// "domain [type]" (type defaults to ip); each answer line is
// "domain type value".
class DnsVfs : public QueryVfs {
 public:
  explicit DnsVfs(std::shared_ptr<DnsResolver> resolver);
};

// Run an authoritative DNS service answering from `db` on udp!*!53 within
// `proc`'s name space.  Protocol (ASCII, one datagram each way):
//   request:  "domain type"
//   response: "domain type value" per record, or "!dns: no such domain".
Result<std::unique_ptr<Service>> StartDnsServer(std::shared_ptr<Proc> proc,
                                                const Ndb* db) MAY_BLOCK;

}  // namespace plan9

#endif  // SRC_CSDNS_DNS_H_
