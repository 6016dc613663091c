// devproto — protocol devices as file trees (§2.3).
//
// "Each protocol device driver serves a directory structure similar to that
// of the Ethernet driver.  The top directory contains a clone file and a
// directory for each connection numbered 0 to n."
//
//   /net/tcp/clone
//   /net/tcp/2/{ctl,data,listen,local,remote,status}
//
// The connection dance implemented here is the paper's §2.3 list:
//   1) open clone -> reserves an unused conversation; the fd *is* its ctl
//   2) read it    -> ASCII connection number
//   3) write a protocol-specific ASCII address string ("connect 1.2.3.4!564")
//   4) open the data file -> connection established (open blocks on the
//      handshake)
// and for listeners: open the listen file blocks until a call arrives and
// the fd morphs into the ctl file of the new conversation.
//
// NetDirVfs aggregates several NetProtos into one mountable root so that
// `bind -a` onto /net produces /net/tcp /net/udp /net/il ... (§6), next to
// the node's observability files (stats, trace, ctl).
#ifndef SRC_DEV_DEVPROTO_H_
#define SRC_DEV_DEVPROTO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/inet/netproto.h"
#include "src/ninep/server.h"

namespace plan9 {

class NetDirVfs : public Vfs {
 public:
  // `obs` is the node's context, which /net/stats, /net/trace and /net/ctl
  // describe.
  explicit NetDirVfs(obs::Context& obs);
  ~NetDirVfs() override;

  // Add a protocol directory (not owned).
  void Add(NetProto* proto);

  Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                        const std::string& aname) override;

 private:
  friend class NetRootVnode;
  obs::Context& obs_;
  std::vector<NetProto*> protos_;
};

}  // namespace plan9

#endif  // SRC_DEV_DEVPROTO_H_
