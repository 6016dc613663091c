// Cyclone fiber links (§7).
//
// "The file servers and CPU servers are connected by high-bandwidth
// point-to-point links...  Software in the VME card reduces latency by
// copying messages from system memory to fiber without intermediate
// buffering."  A Cyclone link carries delimited messages (9P rides on it
// directly, unframed).  We expose each link as a conversation of the
// /net/cyclone protocol device: `connect N` attaches to link N; there is no
// addressing — the fiber has exactly one other end.
//
// A simple credit scheme (the receiver acknowledges consumed bytes) bounds
// the data in flight, standing in for the VME card's staging discipline.
#ifndef SRC_DEV_CYCLONE_H_
#define SRC_DEV_CYCLONE_H_

#include <memory>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/conv.h"
#include "src/sim/wire.h"
#include "src/task/qlock.h"

namespace plan9 {

class CycloneProto;

class CycloneConv : public ConvCore {
 public:
  CycloneConv(CycloneProto* proto, int index);

  Status Ctl(const std::string& msg) override;
  Status WaitReady() override;
  Result<int> Listen() override { return Error("cyclone: point-to-point, no listen"); }
  std::string Local() override;
  std::string Remote() override;
  std::string StatusText() override;
  // Sleeps for credit.
  Status SendMessage(Bytes msg) override P9_HOT_PATH MAY_BLOCK;

 private:
  friend class CycloneProto;

  static constexpr size_t kMaxOutstanding = 256 * 1024;

  // Conversation-core hooks (conv.h).
  void ResetLocked() override REQUIRES(lock_);
  void Close() override;
  void Abandon(const std::string& why) override;

  void WireInput(Bytes frame) P9_HOT_PATH;

  CycloneProto* proto_;
  bool connected_ GUARDED_BY(lock_) = false;
  int link_ GUARDED_BY(lock_) = -1;
  // Cached at connect: avoids the proto lock on the data path.
  Wire* wire_ GUARDED_BY(lock_) = nullptr;
  Wire::End wend_ GUARDED_BY(lock_) = Wire::kA;
  size_t outstanding_ GUARDED_BY(lock_) = 0;
};

class CycloneProto : public ConvTable<CycloneConv> {
 public:
  explicit CycloneProto(obs::Context& obs = obs::Context::Root())
      : ConvTable("cyclone.proto", obs) {}

  // Register one end of a fiber as link number `n` (sequential).  Returns
  // the link number.  Wire not owned.
  int AddLink(Wire* wire, Wire::End end);

  std::string name() override { return "cyclone"; }

  // No listen file (point-to-point), plus a stats file reporting the
  // bound fiber's media and fault counters in each direction.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "local", "remote", "status", "stats"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

  // Crash semantics (node lifecycle): detach every bound fiber end and hang
  // up the conversations abruptly.  The peer end of each fiber sees silence
  // (its 9P deadline or deadman fires), never a polite close.  Idempotent;
  // a graveyarded proto must not detach the restarted kernel's re-attached
  // wire ends.
  void Unplug();

 private:
  friend class CycloneConv;
  struct Link {
    Wire* wire;
    Wire::End end;
    CycloneConv* bound = nullptr;  // at most one conversation per fiber
  };

  std::unique_ptr<CycloneConv> NewConv(int index) override {
    return std::make_unique<CycloneConv>(this, index);
  }

  std::vector<Link> links_ GUARDED_BY(lock_);
  bool unplugged_ GUARDED_BY(lock_) = false;
};

}  // namespace plan9

#endif  // SRC_DEV_CYCLONE_H_
