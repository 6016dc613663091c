#include "src/inet/ipconv.h"

#include "src/base/strings.h"

namespace plan9 {

Status IpConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  if (words[0] == "connect" && words.size() >= 2) {
    P9_ASSIGN_OR_RETURN(HostPort hp, ParseConnectAddr(words[1]));
    return Connect(hp);
  }
  if (words[0] == "announce" && words.size() >= 2) {
    P9_ASSIGN_OR_RETURN(uint16_t port, ParseAnnounceAddr(words[1]));
    QLockGuard guard(lock_);
    return AnnounceLocked(port);
  }
  if (words[0] == "hangup" || words[0] == "reject") {
    CloseUser();
    return Status::Ok();
  }
  if (words[0] == "accept") {
    return Status::Ok();
  }
  return CtlVerb(words);
}

std::string IpConv::Local() {
  QLockGuard guard(lock_);
  return StrFormat("%s %u\n", IpToString(ShownLocalLocked()).c_str(), lport_);
}

std::string IpConv::Remote() {
  QLockGuard guard(lock_);
  return StrFormat("%s %u\n", IpToString(raddr_).c_str(), rport_);
}

}  // namespace plan9
