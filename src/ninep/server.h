// 9P server framework.
//
// External file servers "use an RPC form" of the protocol (§2.1).  A
// NinepServer speaks 9P over one MsgTransport on behalf of a Vfs.  It is
// multithreaded — "Exportfs must be multithreaded since the system calls
// open, read and write may block" (§6.1) — as a leader/follower pool: the
// one worker holding the reader role reads a request, runs it, and reads the
// next.  Only when a request is about to block (a Rendez sleep that waits,
// or a contended QLock) does a BlockHook (src/task/qlock.h) hand the role to
// one idle worker, as Plan 9's exportfs runs walk and stat in the process
// that read them.  So a long request that never blocks delays the read of
// the next until it finishes, and one that blocks passes the role on when it
// parks, not when it is read.  Up to kWorkers requests may block at once;
// replies are serialized onto the transport.
#ifndef SRC_NINEP_SERVER_H_
#define SRC_NINEP_SERVER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/ninep/fcall.h"
#include "src/ninep/transport.h"
#include "src/obs/context.h"
#include "src/task/kproc.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

// A server-side file object.  Implementations: RamFs nodes, synthetic trees
// (SrvFile), exportfs relays.
class Vnode {
 public:
  virtual ~Vnode() = default;

  virtual Qid qid() = 0;
  virtual Result<Dir> Stat() = 0;

  // Walk one component ("." and ".." included).  Only meaningful on dirs.
  virtual Result<std::shared_ptr<Vnode>> Walk(const std::string& name) = 0;

  // Prepare for I/O.  `user` is the attach uname.  MAY_BLOCK: device vnodes
  // (devproto) block in Open on Listen/WaitReady — the reason the server
  // runs several workers.
  virtual Status Open(uint8_t mode, const std::string& user) MAY_BLOCK {
    return Status::Ok();
  }

  virtual Result<std::shared_ptr<Vnode>> Create(const std::string& name, uint32_t perm,
                                                uint8_t mode, const std::string& user) {
    return Error(kErrPerm);
  }

  // Directories return packed Dir records (offset/count in bytes, kDirLen
  // aligned); PackDirEntries below helps.  MAY_BLOCK: data-file vnodes wait
  // for stream input / flow control.
  virtual Result<Bytes> Read(uint64_t offset, uint32_t count) MAY_BLOCK = 0;

  virtual Result<uint32_t> Write(uint64_t offset, const Bytes& data) MAY_BLOCK {
    return Error(kErrPerm);
  }

  virtual Status Remove() { return Error(kErrPerm); }
  virtual Status Wstat(const Dir& d) { return Error(kErrPerm); }

  // Last reference via an *opened* fid went away.
  virtual void Close(uint8_t mode) {}
};

class Vfs {
 public:
  virtual ~Vfs() = default;
  virtual Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                                const std::string& aname) = 0;
};

// Helper: serve a directory read from a materialized entry list.
Result<Bytes> PackDirEntries(const std::vector<Dir>& entries, uint64_t offset,
                             uint32_t count);

class NinepServer {
 public:
  // Worker kprocs per server: the most requests that may block at once.
  static constexpr int kWorkers = 4;

  // Serves until EOF on the transport; call Shutdown() or destroy to stop.
  // `vfs` must outlive the server.  `obs` is the context of the node the
  // server runs on: its served count and spans land there.
  NinepServer(Vfs* vfs, std::unique_ptr<MsgTransport> transport,
              std::string name = "9p.server",
              obs::Context& obs = obs::Context::Root());
  ~NinepServer();

  // Stops reading requests (any still queued on the transport are never
  // run) and waits as Wait does.
  void Shutdown();
  // Block until every worker exits (EOF or Shutdown, then the requests
  // already running finish).
  void Wait() MAY_BLOCK;

 private:
  struct FidState {
    std::shared_ptr<Vnode> node;
    std::string user;
    bool open = false;
    uint8_t open_mode = 0;
  };

  // Waits for the reader role, then reads and runs requests until one
  // blocks (HandOff gives the role up) or the transport ends.
  void Worker();
  // The block hook armed around Dispatch: gives up the reader role and wakes
  // one idle worker to take it.  Runs under whatever lock the worker is
  // about to sleep on, so lock_ must stay a leaf (DESIGN.md §7).
  void HandOff();
  // Run by the reader: reads the next request and records its tag.  nullopt
  // once the transport is at EOF or Shutdown has begun (a request read after
  // that is dropped), after waking every idle worker to exit.
  std::optional<Fcall> ReadRequest() MAY_BLOCK;
  void Dispatch(Fcall req) MAY_BLOCK;
  // Blocks: holds write_lock_ (sleepable) across a flow-controlled WriteMsg.
  void Reply(const Fcall& reply) MAY_BLOCK;
  // The fid table, each call one step under lock_.  Fid copies a fid's
  // state out ("unknown fid"), dropping it from the table when `drop`;
  // NewFid fails with "fid in use" if fid exists, else installs *state
  // (when given); SetFid installs or replaces.
  Result<FidState> Fid(uint32_t fid, bool drop);
  Status NewFid(uint32_t fid, const FidState* state);
  void SetFid(uint32_t fid, FidState state);

  Vfs* vfs_;
  std::unique_ptr<MsgTransport> transport_;
  obs::Context& obs_;
  // Serializes replies onto the transport; lock_ is never held while taking
  // it (Reply drops lock_ before packing and writing), though HandOff takes
  // lock_ under it.  Sleepable: held across WriteMsg, which can block on
  // transport flow control — by design, so concurrent repliers queue behind
  // the stalled frame write.
  QLock write_lock_{"9p.server.write", kSleepableClass};

  // Fid table + reader role.  A leaf: nothing is taken under it, and no
  // dispatching worker holds it across a park.
  QLock lock_{"9p.server"};
  std::map<uint32_t, FidState> fids_ GUARDED_BY(lock_);
  // A worker holds the reader role; idle workers sleep on role_ for it.
  bool reading_ GUARDED_BY(lock_) = false;
  Rendez role_;
  // Tags whose replies must be suppressed (Tflush).
  std::set<uint16_t> flushed_ GUARDED_BY(lock_);
  std::set<uint16_t> outstanding_ GUARDED_BY(lock_);
  bool stopping_ GUARDED_BY(lock_) = false;

  std::vector<Kproc> workers_;  // last: joined before the state above dies
};

}  // namespace plan9

#endif  // SRC_NINEP_SERVER_H_
