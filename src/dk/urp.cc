#include "src/dk/urp.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

// Cell header: [type(1)][seq(1)][flags(1)][pad(1)] + payload.
constexpr size_t kCellHeader = 4;
constexpr uint8_t kTypeData = 0;
constexpr uint8_t kTypeAck = 1;
constexpr uint8_t kFlagBot = 1;  // beginning of message
constexpr uint8_t kFlagEot = 2;  // end of message
constexpr auto kUrpRto = std::chrono::microseconds(100'000);

const char* StateName(DkConv::State s) {
  switch (s) {
    case DkConv::State::kIdle:
      return "Idle";
    case DkConv::State::kAnnounced:
      return "Listen";
    case DkConv::State::kIncoming:
      return "Incoming";
    case DkConv::State::kEstablished:
      return "Established";
    case DkConv::State::kClosed:
      return "Closed";
  }
  return "?";
}

}  // namespace

DkConv::DkConv(DkProto* proto, int index)
    : ConvCore(proto, index, "dk.conv", "urp"),
      proto_(proto),
      metrics_(proto->obs().metrics()) {}

void DkConv::ResetLocked() {
  state_ = State::kIdle;
  remote_addr_.clear();
  announced_service_.clear();
  circuit_.reset();
  call_.reset();
  send_seq_ = send_una_ = recv_expect_ = 0;
  out_.clear();
  partial_.clear();
  metrics_.Reset();
}

Status DkConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  if (words[0] == "connect" && words.size() >= 2) {
    {
      QLockGuard guard(lock_);
      if (state_ != State::kIdle) {
        return Error(kErrConvInUse);
      }
    }
    auto circuit = proto_->dk()->Dial(proto_->host_name(), words[1]);
    if (!circuit.ok()) {
      return circuit.error();
    }
    {
      QLockGuard guard(lock_);
      remote_addr_ = words[1];
    }
    return AttachCircuit(*circuit, Wire::kA);
  }
  if (words[0] == "announce" && words.size() >= 2) {
    QLockGuard guard(lock_);
    if (state_ != State::kIdle) {
      return Error(kErrConvInUse);
    }
    announced_service_ = words[1];
    state_ = State::kAnnounced;
    return Status::Ok();
  }
  if (words[0] == "accept") {
    return DoAccept();
  }
  if (words[0] == "reject") {
    // "Some networks such as Datakit accept a reason for a rejection."
    std::string reason = words.size() >= 2 ? words[1] : "rejected";
    std::shared_ptr<DkCall> call;
    {
      QLockGuard guard(lock_);
      call.swap(call_);
      state_ = State::kClosed;
      HangupLocked(reason);
    }
    if (call != nullptr) {
      call->Reject(reason);
    }
    Settle();
    return Status::Ok();
  }
  if (words[0] == "hangup") {
    CloseUser();
    return Status::Ok();
  }
  return Error(kErrBadCtl);
}

Status DkConv::DoAccept() {
  std::shared_ptr<DkCall> call;
  {
    QLockGuard guard(lock_);
    if (state_ != State::kIncoming) {
      return state_ == State::kEstablished ? Status::Ok() : Error("no call to accept");
    }
    call = call_;
  }
  auto circuit = call->Accept();
  if (circuit == nullptr) {
    return Error("call vanished");
  }
  Status s = AttachCircuit(circuit, Wire::kB);
  ready_.Wakeup();
  return s;
}

Status DkConv::AttachCircuit(std::shared_ptr<DkCircuit> circuit, DkCircuit::End end) {
  {
    QLockGuard guard(lock_);
    circuit_ = circuit;
    end_ = end;
    state_ = State::kEstablished;
  }
  const DkCircuit* from = circuit.get();
  circuit->Attach(
      end, [this, from](Bytes cell) { CircuitInput(from, std::move(cell)); },
      [this, from] { CircuitHangup(from); });
  return Status::Ok();
}

Status DkConv::WaitReady() {
  // Opening the data file of an un-accepted incoming call accepts it (IP
  // protocols auto-accept at listen; Datakit does it here).
  {
    QLockGuard guard(lock_);
    if (state_ == State::kAnnounced) {
      return Status::Ok();
    }
  }
  (void)DoAccept();
  QLockGuard guard(lock_);
  bool done = ready_.SleepFor(lock_, std::chrono::seconds(5), [&]() REQUIRES(lock_) {
    return state_ == State::kEstablished || state_ == State::kClosed;
  });
  if (state_ == State::kEstablished) {
    return Status::Ok();
  }
  return Error(!done ? std::string(kErrTimedOut)
                     : (err_.empty() ? std::string(kErrConnRefused) : err_));
}

std::string DkConv::Local() {
  QLockGuard guard(lock_);
  std::string addr = proto_->host_name();
  if (state_ == State::kAnnounced && !announced_service_.empty()) {
    addr += "!" + announced_service_;
  }
  return addr + "\n";
}

std::string DkConv::Remote() {
  QLockGuard guard(lock_);
  return remote_addr_ + "\n";
}

std::string DkConv::StatusText() {
  QLockGuard guard(lock_);
  return StrFormat("dk/%d %d %s %s %s tx %llu rx %llu\n", index_, refs.load(),
                   StateName(state_), remote_addr_.empty() ? "announce" : "connect",
                   remote_addr_.empty() ? announced_service_.c_str()
                                        : remote_addr_.c_str(),
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()));
}

void DkConv::Close() {
  std::shared_ptr<DkCircuit> circuit;
  std::shared_ptr<DkCall> call;
  DkCircuit::End end = Wire::kA;
  {
    // Take the circuit and call: the last reference to a circuit waits out
    // the timer wheel's executor (Drain), which must not happen under a lock.
    QLockGuard guard(lock_);
    circuit.swap(circuit_);
    call.swap(call_);
    end = end_;
    state_ = State::kClosed;
    HangupLocked("");
  }
  if (call != nullptr) {
    call->Reject("hangup");
  }
  if (circuit != nullptr) {
    circuit->Close(end);
  }
}

void DkConv::Abandon(const std::string& why) {
  std::shared_ptr<DkCircuit> circuit;
  DkCircuit::End end = Wire::kA;
  {
    QLockGuard guard(lock_);
    HangupLocked(state_ == State::kIdle ? std::string_view() : why);
    state_ = State::kClosed;
    call_.reset();  // pending incoming calls time out at the caller
    circuit.swap(circuit_);
    end = end_;
  }
  if (circuit != nullptr) {
    // The switch tears down a dead host's circuits: the peer observes a
    // hangup arriving over the circuit, never our memory state.
    circuit->Close(end);
  }
}

Status DkConv::SendMessage(Bytes msg) {
  QLockGuard guard(lock_);
  // Cut the message into cells, marking message boundaries (Datakit/URP
  // preserves delimiters).
  size_t ncells = msg.empty() ? 1 : (msg.size() + DkConv::kCellData - 1) / DkConv::kCellData;
  for (size_t i = 0; i < ncells; i++) {
    // Flow control: at most kWindow cells outstanding plus a modest queue.
    window_.Sleep(lock_, [&]() REQUIRES(lock_) { return state_ != State::kEstablished || out_.size() < 32; });
    if (state_ != State::kEstablished) {
      return Error(err_.empty() ? std::string(kErrHungup) : err_);
    }
    size_t off = i * DkConv::kCellData;
    size_t len = std::min(DkConv::kCellData, msg.size() - off);
    Cell cell;
    cell.seq = 0;  // assigned when sent
    cell.raw.reserve(kCellHeader + len);
    cell.raw.push_back(kTypeData);
    cell.raw.push_back(0);  // seq placeholder
    uint8_t flags = 0;
    if (i == 0) {
      flags |= kFlagBot;
    }
    if (i + 1 == ncells) {
      flags |= kFlagEot;
    }
    cell.raw.push_back(flags);
    cell.raw.push_back(0);
    cell.raw.insert(cell.raw.end(), msg.begin() + static_cast<long>(off),
                    msg.begin() + static_cast<long>(off + len));
    out_.push_back(std::move(cell));
  }
  metrics_.msgs_sent.Inc();
  metrics_.bytes_sent.Inc(msg.size());
  PumpLocked();
  return Status::Ok();
}

void DkConv::PumpLocked() {
  // Send queued cells while the window has room.
  size_t inflight = static_cast<uint8_t>((send_seq_ - send_una_) & 7);
  for (auto& cell : out_) {
    if (cell.sent) {
      continue;
    }
    if (inflight >= kWindow) {
      break;
    }
    cell.seq = send_seq_;
    cell.raw[1] = send_seq_;
    send_seq_ = (send_seq_ + 1) & 7;
    cell.sent = true;
    inflight++;
    metrics_.cells_sent.Inc();
    (void)circuit_->Send(end_, cell.raw);
  }
  if (send_una_ != send_seq_ && !TimerArmedLocked()) {
    ArmTimerLocked(kUrpRto);
  }
}

void DkConv::EmitAckLocked() {
  Bytes ack{kTypeAck, recv_expect_, 0, 0};
  (void)circuit_->Send(end_, std::move(ack));
}

void DkConv::TimerLocked() {
  if (state_ != State::kEstablished || send_una_ == send_seq_) {
    return;
  }
  // Go-back-N: resend every outstanding cell.
  for (auto& cell : out_) {
    if (!cell.sent) {
      break;
    }
    metrics_.retransmits.Inc();
    (void)circuit_->Send(end_, cell.raw);
  }
  ArmTimerLocked(kUrpRto);
}

void DkConv::CircuitInput(const DkCircuit* from, Bytes cell) {
  P9_HOT_ROOT("urp.input");
  std::vector<BlockPtr> deliveries;
  Stream* stream;
  {
    QLockGuard guard(lock_);
    stream = stream_.get();
    if (cell.size() < kCellHeader || state_ != State::kEstablished ||
        circuit_.get() != from) {
      return;
    }
    uint8_t type = cell[0];
    uint8_t seq = cell[1];
    uint8_t flags = cell[2];
    metrics_.cells_received.Inc();
    if (type == kTypeAck) {
      // Cumulative ack: seq = next cell the peer expects.
      while (send_una_ != seq && send_una_ != send_seq_) {
        if (!out_.empty()) {
          out_.pop_front();
        }
        send_una_ = (send_una_ + 1) & 7;
      }
      if (send_una_ == send_seq_) {
        CancelTimerLocked();
      }
      PumpLocked();
    } else if (type == kTypeData) {
      if (seq != recv_expect_) {
        // Out of order (go-back-N receiver accepts only in sequence);
        // re-ack so the sender resynchronizes.
        EmitAckLocked();
      } else {
        recv_expect_ = (recv_expect_ + 1) & 7;
        if (flags & kFlagBot) {
          partial_.clear();
        }
        partial_.insert(partial_.end(), cell.begin() + kCellHeader, cell.end());
        if (flags & kFlagEot) {
          metrics_.msgs_received.Inc();
          metrics_.bytes_received.Inc(partial_.size());
          deliveries.push_back(AllocDataBlock(std::move(partial_), /*delim=*/true));
          partial_ = Bytes{};
        }
        EmitAckLocked();
      }
    }
  }
  for (auto& b : deliveries) {
    stream->DeliverUp(std::move(b));
  }
  window_.Wakeup();
}

void DkConv::CircuitHangup(const DkCircuit* from) {
  {
    QLockGuard guard(lock_);
    if (circuit_.get() != from) {
      return;
    }
    state_ = State::kClosed;
    HangupLocked(kErrHungup);
  }
  Settle();
}

DkProto::DkProto(DatakitSwitch* dk_switch, std::string host_name, obs::Context& obs)
    : ConvTable("dk.proto", obs), switch_(dk_switch), host_name_(std::move(host_name)) {
  (void)switch_->AttachHost(host_name_,
                            [this](std::shared_ptr<DkCall> call) { IncomingCall(call); });
}

void DkProto::Unplug() {
  bool detach = false;
  {
    QLockGuard guard(lock_);
    detach = !unplugged_;
    unplugged_ = true;
  }
  if (detach) {
    switch_->DetachHost(host_name_);
  }
}

DkProto::~DkProto() {
  Unplug();
  Quiesce();
}

void DkProto::IncomingCall(std::shared_ptr<DkCall> call) {
  // Route to the conversation announced for this service; "*" hears
  // anything not explicitly announced ("one can easily write the equivalent
  // of the inetd program", §5.2).
  DkConv* listener = nullptr;
  {
    QLockGuard guard(lock_);
    for (auto& slot : slots_) {
      DkConv* c = slot.get();
      QLockGuard cguard(c->lock_);
      if (c->state_ == DkConv::State::kAnnounced &&
          c->announced_service_ == call->service()) {
        listener = c;
        break;
      }
    }
    if (listener == nullptr) {
      for (auto& slot : slots_) {
        DkConv* c = slot.get();
        QLockGuard cguard(c->lock_);
        if (c->state_ == DkConv::State::kAnnounced && c->announced_service_ == "*") {
          listener = c;
          break;
        }
      }
    }
  }
  if (listener == nullptr) {
    call->Reject("no listener");
    return;
  }
  auto spawned = Alloc();
  if (!spawned.ok()) {
    call->Reject("no free conversations");
    return;
  }
  DkConv* nc = *spawned;
  {
    QLockGuard guard(nc->lock_);
    nc->state_ = DkConv::State::kIncoming;
    nc->call_ = call;
    nc->remote_addr_ = call->from() + "!" + call->service();
  }
  listener->QueueCall(nc);
}

}  // namespace plan9
