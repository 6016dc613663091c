// 9P client RPC engine — the heart of the mount driver (§2.1).
//
// "The mount driver manages buffers, packs and unpacks parameters from
// messages, and demultiplexes among processes using the file server."
// Multiple processes issue RPCs concurrently, and the mount driver keeps no
// process of its own: as in Plan 9's devmnt (mountio, mountmux, mntgate), a
// caller waiting for its reply reads the transport itself whenever no other
// caller holds the reader role, hands each reply for another tag to its
// owner, and passes the role to one sleeping waiter once its own reply has
// landed.
#ifndef SRC_NINEP_CLIENT_H_
#define SRC_NINEP_CLIENT_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/ninep/fcall.h"
#include "src/ninep/transport.h"
#include "src/obs/context.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

// Counters for the recovery machinery; tests assert Tflush actually fired.
// Increments also feed the node's ninep.rpc.* entries in /net/stats.
// Atomic, so readable without the client lock.
struct NinepClientStats : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter rpcs{this, "ninep.rpc.count"};
  obs::Counter timeouts{this, "ninep.rpc.timeouts"};  // deadlines that expired
  obs::Counter flushes_sent{this, "ninep.rpc.flushes-sent"};  // Tflushes written
  // RPCs the server confirmed flushed (Rflush won).
  obs::Counter flushed{this, "ninep.rpc.flushed"};
  // The original reply beat the Rflush after a timeout.
  obs::Counter late_replies{this, "ninep.rpc.late-replies"};
  // Connection declared dead (FailAll).
  obs::Counter failures{this, "ninep.rpc.failures"};
};

class NinepClient {
 public:
  // `obs` is the context of the node the client runs on: its counters,
  // latency histogram and RPC spans land there.
  explicit NinepClient(std::unique_ptr<MsgTransport> transport,
                       obs::Context& obs = obs::Context::Root());
  ~NinepClient();

  NinepClient(const NinepClient&) = delete;
  NinepClient& operator=(const NinepClient&) = delete;

  // Issue one RPC: allocates the tag, sends, blocks for the matching reply.
  // Rerror replies surface as failed Results carrying ename.
  //
  // With a deadline set (SetRpcTimeout), an overdue RPC is flushed: a
  // Tflush(oldtag) goes out and the caller gets a timeout error once the
  // server confirms (Rflush) — or, if the original reply outruns the
  // Rflush, that reply, late but intact.  If the flush itself goes
  // unanswered for another deadline the connection is declared dead:
  // every waiter fails and the on-dead hook fires (redial time).
  Result<Fcall> Rpc(Fcall tx) MAY_BLOCK;

  // Per-RPC deadline; zero (the default) waits forever.
  void SetRpcTimeout(std::chrono::milliseconds timeout);

  // Invoked (without locks held, at most once) when the connection is
  // declared dead — transport error or unanswered flush — on the caller
  // that saw the failure.  With no reader of its own, an idle client
  // notices a dead transport at its next RPC.  The mount layer hangs a
  // redial policy here.
  void OnDead(std::function<void(const std::string& why)> hook);

  const NinepClientStats& stats() const { return stats_; }

  // Fid allocation for callers (the server sees whatever we choose).
  uint32_t AllocFid();

  // Convenience wrappers over Rpc; all of them block for the reply.
  Status Session() MAY_BLOCK;
  Result<Qid> Attach(uint32_t fid, const std::string& uname,
                     const std::string& aname) MAY_BLOCK;
  Result<Qid> Walk(uint32_t fid, const std::string& name) MAY_BLOCK;
  // Clone fid to newfid then walk each element; clunks newfid on failure.
  Result<Qid> CloneWalk(uint32_t fid, uint32_t newfid,
                        const std::vector<std::string>& names) MAY_BLOCK;
  Result<Qid> Open(uint32_t fid, uint8_t mode) MAY_BLOCK;
  Result<Qid> Create(uint32_t fid, const std::string& name, uint32_t perm,
                     uint8_t mode) MAY_BLOCK;
  Result<Bytes> Read(uint32_t fid, uint64_t offset, uint32_t count) MAY_BLOCK;
  Result<uint32_t> Write(uint32_t fid, uint64_t offset, const Bytes& data) MAY_BLOCK;
  Status Clunk(uint32_t fid) MAY_BLOCK;
  Status Remove(uint32_t fid) MAY_BLOCK;
  Result<Dir> Stat(uint32_t fid) MAY_BLOCK;
  Status Wstat(uint32_t fid, const Dir& d) MAY_BLOCK;

  // Whether the connection is still alive.
  bool ok();

 private:
  using Clock = std::chrono::steady_clock;

  // One outstanding tag, an RPC's or a flush's, and the caller waiting on it.
  struct Pending {
    Rendez done;
    bool have_reply = false;
    Fcall reply;
    // Set while a caller sleeps on `done`, cleared by whoever wakes it, so a
    // role hand-off goes to a waiter that is really asleep (Plan 9's wakeup
    // reports whether it woke anyone).
    bool asleep = false;
    // An RPC being flushed: the flush whose sleeper its reply wakes too.
    std::shared_ptr<Pending> flusher;
    // A flush: the tag it flushes, which its Rflush reaps.
    uint16_t oldtag = kNoTag;
  };

  uint16_t AllocTagLocked() REQUIRES(lock_);
  // Declares the connection dead, failing every waiter.  Returns the OnDead
  // call to make with no lock held on the live->dead transition, else null.
  std::function<void()> FailAllLocked(const std::string& why) REQUIRES(lock_);
  // FailAllLocked under the lock, then the OnDead call off it.
  void Fail(const std::string& why);
  // Wakes the caller sleeping on `p`, if one is; returns whether it did.
  bool WakeLocked(Pending& p) REQUIRES(lock_);
  // The reader role is free: wake one sleeping waiter to take it.
  void HandOffLocked() REQUIRES(lock_);
  // Files a reply with its tag's owner (mountmux).
  void DeliverLocked(Fcall reply) REQUIRES(lock_);
  // Waits until `mine` (or `also`) has its reply, or `deadline` passes
  // (false).  Reads the transport under an alarm at `deadline` whenever no
  // other caller holds the reader role, else sleeps on `mine` (mountio).
  // Takes lock_ itself: the read runs with it dropped.
  bool Await(Pending& mine, const Pending* also, Clock::time_point deadline) MAY_BLOCK;
  // `waiter`'s wait for tag `oldtag` ended without a reply: its deadline
  // passed, or the thread's ReadAlarm rang first (`interrupted`).  Sends
  // Tflush(oldtag); after a deadline, waits up to `timeout` more for the old
  // reply or the Rflush and returns the reply to surface or a timeout;
  // after an alarm, returns kErrInterrupted at once.
  Result<Fcall> FlushAndReap(uint16_t oldtag, std::shared_ptr<Pending> waiter,
                             std::chrono::milliseconds timeout,
                             bool interrupted) MAY_BLOCK;

  std::unique_ptr<MsgTransport> transport_;
  obs::Context& obs_;
  QLock lock_{"9p.client"};
  std::map<uint16_t, std::shared_ptr<Pending>> pending_ GUARDED_BY(lock_);
  uint16_t next_tag_ GUARDED_BY(lock_) = 1;
  uint32_t next_fid_ GUARDED_BY(lock_) = 1;
  bool dead_ GUARDED_BY(lock_) = false;
  std::string death_reason_ GUARDED_BY(lock_);
  std::chrono::milliseconds rpc_timeout_ GUARDED_BY(lock_){0};
  std::function<void(const std::string&)> on_dead_ GUARDED_BY(lock_);
  // A caller holds the reader role: it alone reads the transport.
  bool reading_ GUARDED_BY(lock_) = false;
  NinepClientStats stats_{obs_.metrics()};  // atomic counters; no lock needed
};

}  // namespace plan9

#endif  // SRC_NINEP_CLIENT_H_
