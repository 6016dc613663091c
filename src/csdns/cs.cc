#include "src/csdns/cs.h"

#include <algorithm>

#include "src/base/strings.h"

namespace plan9 {

Result<std::vector<std::string>> CsTranslator::Query(const std::string& query) const {
  // Visible in a dial trace as the name-translation hop under dial.cs.
  obs::ScopedSpan span("cs.translate", *config_.obs);
  auto q = std::string(TrimSpace(query));
  if (HasPrefix(q, "announce ")) {
    return TranslateAnnounce(q.substr(9));
  }
  return Translate(q);
}

std::vector<std::string> CsTranslator::ExpandHost(const std::string& host) const {
  if (!host.empty() && host[0] == '$') {
    // "A host name of the form $attr is the name of an attribute in the
    // network database.  The database search returns the value of the
    // matching attribute/value pair most closely associated with the source
    // host."
    return config_.db->IpInfo(config_.self_ip, host.substr(1));
  }
  return {host};
}

std::vector<std::string> CsTranslator::IpAddrsFor(const std::string& host) const {
  // Already numeric?
  if (IpFromString(host).ok()) {
    return {host};
  }
  std::vector<std::string> out;
  auto add_entry_ips = [&](const NdbEntry* e) {
    for (auto& ip : e->FindAll("ip")) {
      if (std::find(out.begin(), out.end(), ip) == out.end()) {
        out.push_back(ip);
      }
    }
  };
  for (const auto* e : config_.db->Search("sys", host)) {
    add_entry_ips(e);
  }
  for (const auto* e : config_.db->Search("dom", host)) {
    add_entry_ips(e);
  }
  if (out.empty() && config_.dns != nullptr &&
      host.find('.') != std::string::npos) {
    // "For domain names however, CS first consults ... (DNS)."
    auto resolved = config_.dns->Resolve(host);
    if (resolved.ok()) {
      out = *resolved;
    }
  }
  return out;
}

std::vector<std::string> CsTranslator::DkAddrsFor(const std::string& host) const {
  // A literal circuit path is already an address.
  if (host.find('/') != std::string::npos) {
    return {host};
  }
  std::vector<std::string> out;
  for (const auto* e : config_.db->Search("sys", host)) {
    for (auto& dk : e->FindAll("dk")) {
      out.push_back(dk);
    }
  }
  for (const auto* e : config_.db->Search("dom", host)) {
    for (auto& dk : e->FindAll("dk")) {
      if (std::find(out.begin(), out.end(), dk) == out.end()) {
        out.push_back(dk);
      }
    }
  }
  return out;
}

Result<std::vector<std::string>> CsTranslator::Translate(const std::string& dest) const {
  auto parts = GetFields(dest, "!", /*collapse=*/false);
  if (parts.size() < 2) {
    return Error(kErrBadAddr);
  }
  const std::string& net = parts[0];
  const std::string& host = parts[1];
  std::string service = parts.size() >= 3 ? parts[2] : "";

  std::vector<std::string> lines;
  for (const auto& n : config_.nets) {
    // "The special network name net selects any network in common between
    // source and destination supporting the specified service."
    if (net != "net" && net != n.proto) {
      continue;
    }
    for (const auto& hostval : ExpandHost(host)) {
      if (n.is_ip) {
        if (service.empty()) {
          continue;  // IP networks need a port
        }
        auto port = config_.db->ServicePort(n.proto, service);
        if (!port.has_value()) {
          continue;  // this network does not support the service
        }
        for (const auto& ip : IpAddrsFor(hostval)) {
          std::string line = StrFormat("/net/%s/clone %s!%u", n.proto.c_str(),
                                       ip.c_str(), *port);
          if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
            lines.push_back(line);
          }
        }
      } else {
        for (const auto& dk : DkAddrsFor(hostval)) {
          std::string line = service.empty()
                                 ? StrFormat("/net/dk/clone %s", dk.c_str())
                                 : StrFormat("/net/dk/clone %s!%s", dk.c_str(),
                                             service.c_str());
          if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
            lines.push_back(line);
          }
        }
      }
    }
  }
  if (lines.empty()) {
    return Error(StrFormat("cs: cannot translate %s", dest.c_str()));
  }
  return lines;
}

Result<std::vector<std::string>> CsTranslator::TranslateAnnounce(
    const std::string& addr) const {
  auto parts = GetFields(addr, "!", /*collapse=*/false);
  if (parts.size() < 2) {
    return Error(kErrBadAddr);
  }
  const std::string& net = parts[0];
  std::string service = parts.size() >= 3 ? parts[2] : parts[1];

  std::vector<std::string> lines;
  for (const auto& n : config_.nets) {
    if (net != "net" && net != n.proto) {
      continue;
    }
    if (n.is_ip) {
      auto port = config_.db->ServicePort(n.proto, service);
      if (!port.has_value()) {
        continue;
      }
      lines.push_back(StrFormat("/net/%s/clone *!%u", n.proto.c_str(), *port));
    } else {
      lines.push_back(StrFormat("/net/dk/clone %s", service.c_str()));
    }
  }
  if (lines.empty()) {
    return Error(kErrUnknownService);
  }
  return lines;
}

CsVfs::CsVfs(CsConfig config)
    : QueryVfs("cs", 0xc0, 0xc5,
               [cs = std::make_shared<CsTranslator>(std::move(config))](
                   const std::string& query) { return cs->Query(query); }) {}

}  // namespace plan9
