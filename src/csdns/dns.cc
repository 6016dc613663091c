#include "src/csdns/dns.h"

#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/svc/listen.h"

namespace plan9 {
namespace {
constexpr auto kCacheTtl = std::chrono::seconds(300);
}  // namespace

DnsResolver::DnsResolver(Proc* proc, std::string upstream, const Ndb* local_db)
    : proc_(proc),
      upstream_(std::move(upstream)),
      local_db_(local_db),
      stats_(proc->obs().metrics()) {}

Result<std::vector<std::string>> DnsResolver::Resolve(const std::string& domain,
                                                      const std::string& type) {
  std::string key = domain + " " + type;
  {
    QLockGuard guard(lock_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.expires > std::chrono::steady_clock::now()) {
      stats_.cache_hits.Inc();
      return it->second.values;
    }
  }
  if (!upstream_.empty()) {
    auto answer = AskUpstream(domain, type);
    if (answer.ok() && !answer->empty()) {
      QLockGuard guard(lock_);
      cache_[key] = CacheLine{*answer, std::chrono::steady_clock::now() + kCacheTtl};
      return answer;
    }
  }
  // "If no DNS is reachable, CS relies on its own tables."
  if (local_db_ != nullptr) {
    std::vector<std::string> values;
    for (const auto* e : local_db_->Search("dom", domain)) {
      for (auto& ip : e->FindAll(type == "ip" ? "ip" : std::string(type))) {
        values.push_back(ip);
      }
    }
    if (!values.empty()) {
      return values;
    }
  }
  return Error(StrFormat("dns: no entry for %s", domain.c_str()));
}

Result<std::vector<std::string>> DnsResolver::AskUpstream(const std::string& domain,
                                                          const std::string& type) {
  stats_.upstream_queries.Inc();
  P9_ASSIGN_OR_RETURN(int fd, Dial(proc_, upstream_));
  std::string query = domain + " " + type;
  Status sent = proc_->WriteString(fd, query);
  if (!sent.ok()) {
    (void)proc_->Close(fd);
    return Error(sent.error());
  }
  auto reply = proc_->ReadString(fd);
  (void)proc_->Close(fd);
  if (!reply.ok()) {
    return reply.error();
  }
  if (HasPrefix(*reply, "!")) {
    return Error(reply->substr(1));
  }
  std::vector<std::string> values;
  for (auto& line : GetFields(*reply, "\n")) {
    auto fields = Tokenize(line);
    if (fields.size() >= 3 && fields[0] == domain && fields[1] == type) {
      values.push_back(fields[2]);
    }
  }
  return values;
}

DnsVfs::DnsVfs(std::shared_ptr<DnsResolver> resolver)
    : QueryVfs("dns", 0x0d00, 0x0d2f,
               [resolver = std::move(resolver)](
                   const std::string& query) -> Result<std::vector<std::string>> {
                 auto fields = Tokenize(query);
                 if (fields.empty()) {
                   return Error("dns: empty query");
                 }
                 std::string type = fields.size() >= 2 ? fields[1] : "ip";
                 P9_ASSIGN_OR_RETURN(auto lines, resolver->Resolve(fields[0], type));
                 for (auto& v : lines) {
                   v = fields[0] + " " + type + " " + v;
                 }
                 return lines;
               }) {}

Result<std::unique_ptr<Service>> StartDnsServer(std::shared_ptr<Proc> proc,
                                                const Ndb* db) {
  return Serve(
      std::move(proc), "udp!*!53",
      [db](Proc* p, int dfd, const std::string&) {
        auto query = p->ReadString(dfd);
        std::string reply = "!dns: bad query";
        if (query.ok()) {
          auto fields = Tokenize(*query);
          if (!fields.empty()) {
            std::string type = fields.size() >= 2 ? fields[1] : "ip";
            std::string want = type == "ip" ? "ip" : type;
            std::vector<std::string> lines;
            for (const auto* e : db->Search("dom", fields[0])) {
              for (auto& v : e->FindAll(want)) {
                lines.push_back(fields[0] + " " + type + " " + v);
              }
            }
            reply = lines.empty() ? "!dns: no such domain" : Join(lines, "\n");
          }
        }
        (void)p->WriteString(dfd, reply);
        (void)p->Close(dfd);
      },
      "dns.server");
}

}  // namespace plan9
