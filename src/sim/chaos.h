// Chaos engine — replayable crash/partition schedules + recovery invariants.
//
// The paper's design claims are recovery claims: IL's deadman "kills off"
// connections to dead peers, the dial library retries, importers redial and
// remount.  The chaos engine exercises them end to end by composing node
// crashes/restarts (Node::Crash/Restart), rolling partitions and link flaps
// (the fault layer's SetPartitioned) into one deterministic schedule.
//
// A schedule is either scripted —
//
//   crash t=500ms node=gnot
//   partition t=1000ms medium=ether0
//   heal t=2000ms medium=ether0
//   restart t=2500ms node=gnot
//   flap t=3000ms medium=ether0 down=200ms
//
// (statements separated by newlines or ';'; '#' lines are comments) — or
// generated from a seed over the registered nodes and media.  Generation is
// purely a function of (seed, registered names), so a failing run replays
// byte-for-byte from the seed its test prints: ScheduleText() renders the
// canonical form, and Script(ScheduleText()) reproduces it exactly.
//
// Every fired event lands in the process root's flight recorder
// (TraceKind::kChaos) and bumps the root's chaos.sched.* counters; the engine is readable and drivable
// through /net/chaos in the usual ctl-file idiom (see devproto).
//
// The InvariantChecker closes the loop: after a chaos round (and at
// teardown) it asserts the world actually recovered — no conversation stuck
// mid-handshake or mid-close, no leaked kprocs beyond its baseline, every
// expected service dialable, every expected mount answering (successfully
// or with a clean error — anything but a hang).
#ifndef SRC_SIM_CHAOS_H_
#define SRC_SIM_CHAOS_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/sim/ether_segment.h"
#include "src/sim/wire.h"
#include "src/task/qlock.h"
#include "src/world/node.h"

namespace plan9 {

struct ChaosEvent {
  enum class Kind { kCrash, kRestart, kPartition, kHeal, kFlap };

  std::chrono::milliseconds at{0};  // offset from Run() start
  Kind kind = Kind::kCrash;
  std::string target;                 // node sysname or medium name
  std::chrono::milliseconds down{0};  // kFlap: outage length
};

// Canonical one-line rendering ("crash t=500ms node=gnot"); parsing this
// back yields an identical event — the replay contract.
std::string RenderChaosEvent(const ChaosEvent& ev);

class ChaosEngine {
 public:
  ChaosEngine();
  ~ChaosEngine();

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // The most recently constructed engine, for /net/chaos; null when none.
  static ChaosEngine* Current();

  // --- registration ---------------------------------------------------------
  // Targets events may name.  Registration order does not matter: seeded
  // generation sorts names so the schedule is a function of the set.

  void AddNode(Node* node);
  void AddMedium(const std::string& name, EtherSegment* segment);
  void AddMedium(const std::string& name, Wire* wire);

  // --- schedule building ----------------------------------------------------

  // Replace the schedule with the parsed script (grammar above).  Events
  // need not be time-sorted in the text; they execute sorted, ties in text
  // order.
  Status Script(const std::string& text);

  // Replace the schedule with `events` seeded events spaced uniformly in
  // [min_gap, max_gap], over the registered targets.  Only sensible events
  // are generated (a crashed node restarts, a partitioned medium heals) and
  // the schedule ends balanced: everything crashed restarts, everything
  // partitioned heals.
  void Seed(uint64_t seed, int events,
            std::chrono::milliseconds min_gap = std::chrono::milliseconds(100),
            std::chrono::milliseconds max_gap = std::chrono::milliseconds(400));

  void ClearSchedule();
  uint64_t seed() const;
  size_t EventCount() const;

  // The whole schedule in canonical form, one event per line.
  std::string ScheduleText() const;

  // --- execution ------------------------------------------------------------

  // Execute the schedule synchronously: sleep to each event's offset, fire
  // it.  Returns the first failure (unknown target, restart of a live node).
  Status Run() MAY_BLOCK;

  // Apply one event immediately (Run's worker; also the ctl file's
  // immediate commands).
  Status Fire(const ChaosEvent& ev) MAY_BLOCK;

  // --- /net/chaos -----------------------------------------------------------
  // Ctl grammar:
  //   crash <node>          restart <node>
  //   partition <medium>    heal <medium>      flap <medium> <down>
  //   seed <n> [events [min-gap [max-gap]]]
  //   script <schedule...>  (rest of the message, newline/';' separated)
  //   run                   (blocks until the schedule completes)
  //   clear
  Status Ctl(const std::string& msg) MAY_BLOCK;

  // '#'-prefixed state summary (seed, progress, node/medium state) followed
  // by the canonical schedule — so `cat /net/chaos` output can be written
  // back through `script` to replay.
  std::string StatusText() const;

 private:
  struct Medium {
    std::string name;
    EtherSegment* segment = nullptr;
    Wire* wire = nullptr;
  };

  Node* FindNodeLocked(const std::string& sysname) const REQUIRES(lock_);
  Medium* FindMediumLocked(const std::string& name) REQUIRES(lock_);
  Status SetMediumDown(const std::string& name, bool down);

  mutable QLock lock_{"chaos.engine"};
  std::vector<Node*> nodes_ GUARDED_BY(lock_);
  std::vector<Medium> media_ GUARDED_BY(lock_);
  std::vector<ChaosEvent> schedule_ GUARDED_BY(lock_);
  uint64_t seed_ GUARDED_BY(lock_) = 0;
  size_t executed_ GUARDED_BY(lock_) = 0;
  // Which media this engine has forced down (for StatusText and balance).
  std::vector<std::string> down_media_ GUARDED_BY(lock_);
};

// Post-chaos recovery invariants.  Construct while the world is healthy
// (the kproc baseline is captured then), register expectations, Check after
// each chaos round and at teardown.
class InvariantChecker {
 public:
  InvariantChecker();

  // Scan this node's protocol conversations for stuck states.
  void WatchNode(Node* node);
  // After recovery, `addr` must be dialable through `via`'s name space.
  void ExpectService(Node* via, const std::string& addr);
  // After recovery, a stat of `path` in `proc` must *return* — recovered
  // mounts answer, cleanly-failed mounts error; only a hang is a violation
  // (and shows up as Check never returning, caught by the test timeout).
  void ExpectMount(Proc* proc, const std::string& path);

  // Polls until every invariant holds or `deadline` elapses; returns the
  // first still-violated invariant on timeout.
  Status Check(std::chrono::milliseconds deadline) MAY_BLOCK;

  int baseline_kprocs() const { return baseline_kprocs_; }

 private:
  struct ServiceProbe {
    Node* via;
    std::string addr;
  };
  struct MountProbe {
    Proc* proc;
    std::string path;
  };

  // One non-blocking pass over the quiescence invariants (stuck convs,
  // kproc leak); ok when all hold right now.
  Status QuiescedOnce();

  int baseline_kprocs_;
  std::vector<Node*> nodes_;
  std::vector<ServiceProbe> services_;
  std::vector<MountProbe> mounts_;
};

}  // namespace plan9

#endif  // SRC_SIM_CHAOS_H_
