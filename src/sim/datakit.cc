#include "src/sim/datakit.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {
// In-band message tags so hangup ordering follows the data path.
constexpr uint8_t kTagData = 0;
constexpr uint8_t kTagHangup = 1;
}  // namespace

DkCircuit::DkCircuit(LinkParams params) : wire_(params) {
  // The callback attached at an end receives frames sent from the *other*
  // end, so it delivers to its own side.
  wire_.Attach(Wire::kA, [this](Bytes raw) { Deliver(Wire::kA, std::move(raw)); });
  wire_.Attach(Wire::kB, [this](Bytes raw) { Deliver(Wire::kB, std::move(raw)); });
}

DkCircuit::~DkCircuit() {
  wire_.Cut();
  // Wire delivery lambdas capture `this`; wait out any in flight.
  TimerWheel::Default().Drain();
}

void DkCircuit::Attach(End end, RecvFn on_msg, HangupFn on_hangup) {
  QLockGuard guard(lock_);
  recv_[end] = std::move(on_msg);
  hangup_[end] = std::move(on_hangup);
}

Status DkCircuit::Send(End end, Bytes msg) {
  {
    QLockGuard guard(lock_);
    if (closed_) {
      return Error(kErrHungup);
    }
  }
  Bytes raw;
  raw.reserve(msg.size() + 1);
  raw.push_back(kTagData);
  raw.insert(raw.end(), msg.begin(), msg.end());
  return wire_.Send(end, std::move(raw));
}

void DkCircuit::Close(End end) {
  {
    QLockGuard guard(lock_);
    if (closed_) {
      return;
    }
    closed_ = true;
  }
  (void)wire_.Send(end, Bytes{kTagHangup});
}

bool DkCircuit::closed() {
  QLockGuard guard(lock_);
  return closed_;
}

void DkCircuit::Deliver(End to, Bytes raw) {
  if (raw.empty()) {
    return;
  }
  uint8_t tag = raw[0];
  RecvFn recv;
  HangupFn hangup;
  {
    QLockGuard guard(lock_);
    recv = recv_[to];
    hangup = hangup_[to];
  }
  if (tag == kTagHangup) {
    if (hangup) {
      hangup();
    }
    return;
  }
  if (recv) {
    recv(Bytes(raw.begin() + 1, raw.end()));
  }
}

std::shared_ptr<DkCircuit> DkCall::Accept() {
  std::shared_ptr<DkCircuit> circuit;
  {
    QLockGuard guard(lock_);
    if (state_ != State::kPending) {
      return state_ == State::kAccepted ? circuit_ : nullptr;
    }
    circuit_ = std::make_shared<DkCircuit>(params_);
    circuit = circuit_;
    state_ = State::kAccepted;
  }
  decided_.Wakeup();
  return circuit;
}

void DkCall::Reject(std::string reason) {
  {
    QLockGuard guard(lock_);
    if (state_ != State::kPending) {
      return;
    }
    state_ = State::kRejected;
    reject_reason_ = std::move(reason);
  }
  decided_.Wakeup();
}

DatakitSwitch::DatakitSwitch(LinkParams circuit_params) : circuit_params_(circuit_params) {}

Status DatakitSwitch::AttachHost(const std::string& name, CallFn on_call) {
  QLockGuard guard(lock_);
  for (auto& [n, fn] : hosts_) {
    if (n == name) {
      return Error(StrFormat("datakit host already attached: %s", name.c_str()));
    }
  }
  hosts_.emplace_back(name, std::move(on_call));
  return Status::Ok();
}

void DatakitSwitch::DetachHost(const std::string& name) {
  QLockGuard guard(lock_);
  hosts_.erase(std::remove_if(hosts_.begin(), hosts_.end(),
                              [&](const auto& h) { return h.first == name; }),
               hosts_.end());
}

Result<std::shared_ptr<DkCircuit>> DatakitSwitch::Dial(const std::string& from_host,
                                                       const std::string& dest,
                                                       std::chrono::milliseconds timeout) {
  auto bang = dest.find('!');
  std::string host = bang == std::string::npos ? dest : dest.substr(0, bang);
  std::string service = bang == std::string::npos ? "" : dest.substr(bang + 1);

  CallFn on_call;
  {
    QLockGuard guard(lock_);
    for (auto& [n, fn] : hosts_) {
      if (n == host) {
        on_call = fn;
        break;
      }
    }
  }
  if (!on_call) {
    return Error(StrFormat("unknown datakit host: %s", host.c_str()));
  }

  auto call = std::make_shared<DkCall>(from_host, service, circuit_params_);
  on_call(call);

  QLockGuard guard(call->lock_);
  bool decided = call->decided_.SleepFor(
      call->lock_, timeout,
      [&]() REQUIRES(call->lock_) { return call->state_ != DkCall::State::kPending; });
  if (!decided) {
    return Error(kErrTimedOut);
  }
  if (call->state_ == DkCall::State::kRejected) {
    return Error(call->reject_reason_.empty() ? std::string(kErrConnRefused)
                                              : call->reject_reason_);
  }
  return call->circuit_;
}

}  // namespace plan9
