// The IP transports' layer of the conversation core (IL, TCP, UDP): the
// address quadruple, the ctl verbs the three share, and the local and remote
// files.
#ifndef SRC_INET_IPCONV_H_
#define SRC_INET_IPCONV_H_

#include <string>
#include <vector>

#include "src/inet/conv.h"
#include "src/inet/ip.h"
#include "src/inet/portutil.h"

namespace plan9 {

class IpConv : public ConvCore {
 public:
  // "connect <addr>!<port>", "announce <port>", "hangup", "reject" ("networks
  // such as IP ignore the third argument", so it is a hangup), "accept" (IP
  // calls are already accepted at listen), then the protocol's own verbs.
  Status Ctl(const std::string& msg) override;
  std::string Local() override;
  std::string Remote() override;

 protected:
  IpConv(NetProto* table, IpStack* ip, int index, const char* lock_class,
         const char* module_name)
      : ConvCore(table, index, lock_class, module_name), ip_(ip) {}

  virtual Status Connect(const HostPort& dest) = 0;
  virtual Status AnnounceLocked(uint16_t port) REQUIRES(lock_) = 0;
  virtual Status CtlVerb(const std::vector<std::string>& words) {
    return Error(kErrBadCtl);
  }

  // The local address as the files show it: the interface's when unbound.
  Ipv4Addr ShownLocalLocked() const REQUIRES(lock_) {
    return laddr_.IsUnspecified() ? ip_->PrimaryAddr() : laddr_;
  }

  IpStack* const ip_;
  Ipv4Addr laddr_ GUARDED_BY(lock_), raddr_ GUARDED_BY(lock_);
  uint16_t lport_ GUARDED_BY(lock_) = 0, rport_ GUARDED_BY(lock_) = 0;
};

}  // namespace plan9

#endif  // SRC_INET_IPCONV_H_
