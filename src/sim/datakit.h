// DatakitSwitch — a virtual-circuit network with ASCII addresses.
//
// Datakit [Fra80] is a circuit switch: hosts attach with hierarchical names
// like "nj/astro/helix", calls name a host and service ("nj/astro/helix!9fs"),
// and an established call is a full-duplex circuit that preserves message
// delimiters.  The switch models call placement (accept/reject with a reason
// — "Some networks such as Datakit accept a reason for a rejection"),
// per-circuit bandwidth/latency/loss, and hangup propagation.  URP (src/dk)
// provides reliable transmission over these circuits.
#ifndef SRC_SIM_DATAKIT_H_
#define SRC_SIM_DATAKIT_H_

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "src/base/bytes.h"
#include "src/base/thread_annotations.h"
#include "src/base/result.h"
#include "src/sim/medium.h"
#include "src/sim/wire.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {

// An established circuit.  End kA is always the caller.
class DkCircuit {
 public:
  using RecvFn = std::function<void(Bytes msg)>;
  using HangupFn = std::function<void()>;
  using End = Wire::End;

  explicit DkCircuit(LinkParams params);
  ~DkCircuit();

  void Attach(End end, RecvFn on_msg, HangupFn on_hangup);
  Status Send(End end, Bytes msg);
  // Close this end; the other end's HangupFn fires after in-flight messages.
  void Close(End end);
  bool closed();

 private:
  // Hand a raw frame to the conv attached at `to`.
  void Deliver(End to, Bytes raw);

  Wire wire_;
  QLock lock_{"dk.circuit"};
  RecvFn recv_[2] GUARDED_BY(lock_);
  HangupFn hangup_[2] GUARDED_BY(lock_);
  bool closed_ GUARDED_BY(lock_) = false;
};

// A pending incoming call, delivered to the callee's listener.
class DkCall {
 public:
  DkCall(std::string from, std::string service, LinkParams params)
      : from_(std::move(from)), service_(std::move(service)), params_(params) {}

  const std::string& from() const { return from_; }
  const std::string& service() const { return service_; }

  // Completes the caller's Dial with a circuit (callee gets End kB).
  std::shared_ptr<DkCircuit> Accept();
  void Reject(std::string reason);

 private:
  friend class DatakitSwitch;
  enum class State { kPending, kAccepted, kRejected };

  std::string from_;
  std::string service_;
  LinkParams params_;

  QLock lock_{"dk.call"};
  Rendez decided_;
  State state_ GUARDED_BY(lock_) = State::kPending;
  std::string reject_reason_ GUARDED_BY(lock_);
  std::shared_ptr<DkCircuit> circuit_ GUARDED_BY(lock_);
};

class DatakitSwitch {
 public:
  using CallFn = std::function<void(std::shared_ptr<DkCall>)>;

  explicit DatakitSwitch(LinkParams circuit_params = LinkParams::Datakit());

  // Attach a host by Datakit name; on_call receives incoming calls (it
  // typically enqueues them for a listener kproc).
  Status AttachHost(const std::string& name, CallFn on_call);
  void DetachHost(const std::string& name);

  // Place a call to "path/of/host!service".  Blocks until the callee accepts
  // or rejects, or the timeout expires.
  Result<std::shared_ptr<DkCircuit>> Dial(
      const std::string& from_host, const std::string& dest,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(2000)) MAY_BLOCK;

 private:
  QLock lock_{"dk.switch"};
  LinkParams circuit_params_;
  std::vector<std::pair<std::string, CallFn>> hosts_ GUARDED_BY(lock_);
};

}  // namespace plan9

#endif  // SRC_SIM_DATAKIT_H_
