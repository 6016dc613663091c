// The benchmark's workloads.  Each is a closed loop with one client: the
// load thread issues the next op only after the previous one completed, as
// a Plan 9 process waiting on its reply does.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/world.h"

namespace p9bench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots the world, starts the services, and imports or dials once.  This
  // is what setup_s times.
  virtual bool Setup(uint64_t seed) = 0;
  // One op.  Returns false if any call in it failed.  With spans, the public
  // calls inside the op are timed into them.
  virtual bool Op(Spans* spans) = 0;
  // Closes a measured phase of `ops` ops and returns the payload bytes the
  // far end verified during it (bulk: waits for the sink's count).
  virtual bool EndPhase(uint64_t ops, uint64_t* verified_bytes) = 0;
  // Hangs up and stops the workload's own servers, keeping the world, so
  // probes can run in it afterwards.
  virtual void Quiesce() = 0;

  BenchWorld* world() { return world_.get(); }
  // False once any output the benchmark checks was wrong.
  bool correct() const { return correct_; }

 protected:
  // Member order matters: subclasses' procs and servers die before the world.
  std::unique_ptr<BenchWorld> world_;
  bool correct_ = true;
};

// "rpc9p_il", "bulk_il", "bulk_tcp" or "dial_il"; null for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace p9bench

#endif  // PERFBENCH_WORKLOADS_H_
