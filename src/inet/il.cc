#include "src/inet/il.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/obs/trace.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

// IL RTT samples feed this histogram (microseconds), next to the adaptive
// timeout state that consumes them.
obs::Histogram& IlRttHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Default().HistogramNamed("net.il.rtt");
  return h;
}

constexpr size_t kIlHeaderSize = 18;

// Timing bounds.  Plan 9 used coarse ticks; we work in microseconds with the
// same adaptive structure (srtt + 4*mdev, exponential backoff on repeat).
constexpr auto kMinRto = std::chrono::microseconds(20'000);
constexpr auto kMaxRto = std::chrono::microseconds(2'000'000);
constexpr auto kInitialRtt = std::chrono::microseconds(100'000);
constexpr int kMaxSyncTries = 8;
constexpr int kMaxCloseTries = 4;
constexpr int kMaxBackoff = 16;  // give up after this many consecutive timeouts
// Deadman: a peer that answers none of this many consecutive queries is
// declared dead.  Tighter than kMaxBackoff (which tolerates answered-but-
// unproductive rounds) yet loose enough to ride out a few-second partition.
constexpr int kDeadmanQueries = 10;
// Idle connections are probed at this cadence (real IL regularly queries
// idle conversations); unanswered probes count toward the deadman.
constexpr auto kKeepaliveTime = std::chrono::microseconds(2'000'000);

void Put16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}
uint16_t Get16(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }
void Put32(uint8_t* p, uint32_t v) {
  Put16(p, static_cast<uint16_t>(v >> 16));
  Put16(p + 2, static_cast<uint16_t>(v));
}
uint32_t Get32(const uint8_t* p) {
  return static_cast<uint32_t>(Get16(p)) << 16 | Get16(p + 2);
}

const char* StateName(IlConv::State s) {
  switch (s) {
    case IlConv::State::kClosed:
      return "Closed";
    case IlConv::State::kSyncer:
      return "Syncer";
    case IlConv::State::kSyncee:
      return "Syncee";
    case IlConv::State::kEstablished:
      return "Established";
    case IlConv::State::kListening:
      return "Listen";
    case IlConv::State::kClosing:
      return "Closing";
  }
  return "?";
}

}  // namespace

IlConvMetrics::IlConvMetrics() {
  auto& r = obs::MetricsRegistry::Default();
  msgs_sent.BindParent(&r.CounterNamed("net.il.msgs-sent"));
  msgs_received.BindParent(&r.CounterNamed("net.il.msgs-rcvd"));
  bytes_sent.BindParent(&r.CounterNamed("net.il.bytes-sent"));
  bytes_received.BindParent(&r.CounterNamed("net.il.bytes-rcvd"));
  retransmits.BindParent(&r.CounterNamed("net.il.resends"));
  queries_sent.BindParent(&r.CounterNamed("net.il.queries"));
  states_sent.BindParent(&r.CounterNamed("net.il.states"));
  dups_dropped.BindParent(&r.CounterNamed("net.il.dups"));
  out_of_window.BindParent(&r.CounterNamed("net.il.outwin"));
  keepalives_sent.BindParent(&r.CounterNamed("net.il.keepalives"));
  deadman_closes.BindParent(&r.CounterNamed("net.il.deadman"));
}

void IlConvMetrics::Reset() {
  msgs_sent.Reset();
  msgs_received.Reset();
  bytes_sent.Reset();
  bytes_received.Reset();
  retransmits.Reset();
  queries_sent.Reset();
  states_sent.Reset();
  dups_dropped.Reset();
  out_of_window.Reset();
  keepalives_sent.Reset();
  deadman_closes.Reset();
}

// Stream device module: delimited messages from the user become IL messages.
class IlConv::Module : public StreamModule {
 public:
  explicit Module(IlConv* conv) : conv_(conv) {}
  std::string_view name() const override { return "il"; }

  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH {
    if (b->type != BlockType::kData) {
      DropBlock(std::move(b));
      return;
    }
    pending_.insert(pending_.end(), b->payload(), b->payload() + b->size());
    bool delim = b->delim;
    RecycleBlock(std::move(b));  // payload captured; pool the node
    if (!delim) {
      return;
    }
    Bytes msg;
    msg.swap(pending_);
    Status s = conv_->SendMessage(std::move(msg));
    if (!s.ok()) {
      P9_LOG(kDebug) << "il send: " << s.error().message();
    }
  }

 private:
  IlConv* conv_;
  Bytes pending_;
};

IlConv::IlConv(IlProto* proto, int index) : proto_(proto) {
  index_ = index;
  stream_ = std::make_unique<Stream>(std::make_unique<Module>(this));
}

IlConv::~IlConv() {
  QLockGuard guard(lock_);
  CancelTimerLocked();
}

void IlConv::Recycle() {
  QLockGuard guard(lock_);
  stream_ = std::make_unique<Stream>(std::make_unique<Module>(this));
  state_ = State::kClosed;
  laddr_ = raddr_ = Ipv4Addr{};
  lport_ = rport_ = 0;
  start_ = next_ = rstart_ = recvd_ = 0;
  unacked_.clear();
  out_of_order_.clear();
  srtt_ = mdev_ = std::chrono::microseconds(0);
  backoff_ = 0;
  sync_tries_ = 0;
  close_tries_ = 0;
  unanswered_queries_ = 0;
  pending_.clear();
  err_.clear();
  metrics_.Reset();
}

Status IlConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  if (words[0] == "connect" && words.size() >= 2) {
    P9_ASSIGN_OR_RETURN(HostPort hp, ParseConnectAddr(words[1]));
    return StartConnect(hp);
  }
  if (words[0] == "announce" && words.size() >= 2) {
    P9_ASSIGN_OR_RETURN(uint16_t port, ParseAnnounceAddr(words[1]));
    QLockGuard guard(lock_);
    if (state_ != State::kClosed) {
      return Error("connection already in use");
    }
    lport_ = port;
    state_ = State::kListening;
    return Status::Ok();
  }
  if (words[0] == "hangup" || words[0] == "reject") {
    // "networks such as IP ignore the third argument" — reject == hangup.
    CloseUser();
    return Status::Ok();
  }
  if (words[0] == "accept") {
    return Status::Ok();  // IP-family calls are already accepted at listen
  }
  return Error(kErrBadCtl);
}

Status IlConv::StartConnect(const HostPort& dest) {
  P9_ASSIGN_OR_RETURN(Ipv4Addr laddr, proto_->ip()->SourceFor(dest.addr));
  uint16_t ephemeral;
  uint32_t isn;
  {
    QLockGuard pguard(proto_->lock_);
    ephemeral = proto_->ports_.Next();
    isn = static_cast<uint32_t>(proto_->isn_rng_.Next());
  }
  Status emit = Status::Ok();
  {
    QLockGuard guard(lock_);
    if (state_ != State::kClosed) {
      return Error("connection already in use");
    }
    laddr_ = laddr;
    raddr_ = dest.addr;
    lport_ = ephemeral;
    rport_ = dest.port;
    // "Connection setup uses a two way handshake to generate initial
    // sequence numbers at each end of the connection."
    start_ = isn;
    next_ = start_ + 1;
    state_ = State::kSyncer;
    sync_tries_ = 0;
    emit = EmitLocked(IlType::kSync, start_, 0, {});
    ArmTimerLocked(RtoLocked());
  }
  return emit;
}

Status IlConv::WaitReady() {
  QLockGuard guard(lock_);
  if (state_ == State::kListening) {
    return Status::Ok();
  }
  bool done = ready_.SleepFor(lock_, std::chrono::seconds(15), [&]() REQUIRES(lock_) {
    return state_ == State::kEstablished || state_ == State::kClosed;
  });
  if (state_ == State::kEstablished) {
    return Status::Ok();
  }
  if (!done) {
    return Error(kErrTimedOut);
  }
  return Error(err_.empty() ? std::string(kErrConnRefused) : err_);
}

Result<int> IlConv::Listen() {
  QLockGuard guard(lock_);
  if (state_ != State::kListening) {
    return Error("not announced");
  }
  incoming_.Sleep(lock_, [&]() REQUIRES(lock_) { return !pending_.empty() || state_ == State::kClosed; });
  if (state_ == State::kClosed) {
    return Error(kErrHungup);
  }
  int conv = pending_.front();
  pending_.pop_front();
  return conv;
}

std::string IlConv::Local() {
  QLockGuard guard(lock_);
  Ipv4Addr shown = laddr_.IsUnspecified() ? proto_->ip()->PrimaryAddr() : laddr_;
  return StrFormat("%s %u\n", IpToString(shown).c_str(), lport_);
}

std::string IlConv::Remote() {
  QLockGuard guard(lock_);
  return StrFormat("%s %u\n", IpToString(raddr_).c_str(), rport_);
}

std::string IlConv::StatusText() {
  QLockGuard guard(lock_);
  // The paper's one-line conversation summary: state, local/remote address,
  // bytes each way (plus IL's adaptive-timeout state for good measure).
  Ipv4Addr shown = laddr_.IsUnspecified() ? proto_->ip()->PrimaryAddr() : laddr_;
  return StrFormat("il/%d %d %s %s!%u %s!%u tx %llu rx %llu rtt %lld us unacked %zu%s\n",
                   index_, refs.load(), StateName(state_),
                   IpToString(shown).c_str(), lport_, IpToString(raddr_).c_str(),
                   rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()),
                   static_cast<long long>(srtt_.count()), unacked_.size(),
                   TraceNote().c_str());
}

std::chrono::microseconds IlConv::Srtt() {
  QLockGuard guard(lock_);
  return srtt_;
}

void IlConv::CloseUser() {
  std::deque<int> orphans;
  bool hangup = false;
  {
    QLockGuard guard(lock_);
    switch (state_) {
      case State::kEstablished:
        state_ = State::kClosing;
        close_tries_ = 0;
        (void)EmitLocked(IlType::kClose, next_, recvd_, {});
        ArmTimerLocked(RtoLocked());
        break;
      case State::kListening:
        orphans.swap(pending_);
        state_ = State::kClosed;
        HangupLocked();
        break;
      case State::kSyncer:
      case State::kSyncee:
        state_ = State::kClosed;
        HangupLocked();
        break;
      case State::kClosing:
      case State::kClosed:
        break;
    }
    hangup = std::exchange(hangup_pending_, false);
  }
  if (hangup) {
    CompleteHangup();
  }
  ready_.Wakeup();
  window_.Wakeup();
  incoming_.Wakeup();
  for (int idx : orphans) {
    if (NetConv* c = proto_->Conv(static_cast<size_t>(idx)); c != nullptr) {
      c->CloseUser();
    }
  }
}

void IlConv::HangupLocked() {
  // Not stream_->Hangup() here: that takes the stream chain lock, which the
  // user write path holds while acquiring lock_.  Callers drain the flag
  // once lock_ is dropped.
  hangup_pending_ = true;
  err_ = err_.empty() ? std::string(kErrClosed) : err_;
  CancelTimerLocked();
}

void IlConv::CompleteHangup() {
  stream_->Hangup();
  // Publish the slot only now: AllocConv may Recycle() a free slot, which
  // replaces stream_ — that must not happen while the old stream is still
  // delivering the hangup.
  QLockGuard guard(lock_);
  slot_free_ = true;
}

Status IlConv::SendMessage(Bytes payload) {
  P9_HOT_ROOT("il.send");
  QLockGuard guard(lock_);
  // Window flow control: the user's writing process sleeps until space.
  window_.Sleep(lock_, [&]() REQUIRES(lock_) {
    return state_ != State::kEstablished || unacked_.size() < kWindow;
  });
  if (state_ != State::kEstablished) {
    return Error(err_.empty() ? std::string(kErrHungup) : err_);
  }
  uint32_t id = next_++;
  metrics_.msgs_sent.Inc();
  metrics_.bytes_sent.Inc(payload.size());
  P9_TRACE(obs::TraceKind::kIl, StrFormat("il/%d", index_),
           StrFormat("send id=%u len=%zu", id, payload.size()));
  // The retransmit buffer takes the payload by move; the wire frame is
  // serialized from it, so the user's message is copied exactly once (into
  // the packet).
  unacked_.push_back(Unacked{id, std::move(payload), TimerWheel::Clock::now(), false});
  Status s = EmitLocked(IlType::kData, id, recvd_, unacked_.back().payload);
  if (unacked_.size() == 1) {
    // First outstanding message: the pending timer (if any) is ticking at
    // the keep-alive cadence — rearm at the retransmit timeout.
    ArmTimerLocked(RtoLocked());
  }
  return s;
}

Status IlConv::EmitLocked(IlType type, uint32_t id, uint32_t ack, const Bytes& payload) {
  Bytes pkt(kIlHeaderSize + payload.size());
  uint8_t* h = pkt.data();
  Put16(h, 0);  // sum, filled below
  Put16(h + 2, static_cast<uint16_t>(pkt.size()));
  h[4] = static_cast<uint8_t>(type);
  h[5] = 0;  // spec
  Put16(h + 6, lport_);
  Put16(h + 8, rport_);
  Put32(h + 10, id);
  Put32(h + 14, ack);
  if (!payload.empty()) {
    std::memcpy(h + kIlHeaderSize, payload.data(), payload.size());
  }
  Put16(h, InetChecksum(pkt.data(), pkt.size()));
  return proto_->ip()->Send(kIpProtoIl, laddr_, raddr_, pkt);
}

std::chrono::microseconds IlConv::RtoLocked() const {
  auto base = srtt_.count() == 0 ? kInitialRtt : srtt_ + 4 * mdev_;
  // Exponential backoff while timeouts repeat, but clamped: a query is one
  // tiny control message, so IL keeps probing rather than going silent for
  // seconds the way a blind retransmitter must.
  int exponent = std::min(backoff_, 5);
  for (int i = 0; i < exponent && base < kMaxRto; i++) {
    base *= 2;
  }
  return std::clamp(base, kMinRto, kMaxRto);
}

void IlConv::RttSampleLocked(std::chrono::microseconds sample) {
  IlRttHistogram().Record(static_cast<uint64_t>(sample.count()));
  // A sampled-trace conversation attributes its first RTT measurements to
  // its trace as `il.rtt` point spans parented on the dial.connect span
  // that created the conversation (DESIGN.md §12).  Bounded by the per-
  // capture budget and gated on sampling still being on, so turning
  // sampling off quiesces the ring and trace harvesting over IL never
  // feeds back into the trace.
  if (obs::FlightRecorder::Default().enabled(obs::TraceKind::kSpan) &&
      obs::Tracer::Default().sample_interval() != 0 && trace_hi() != 0 &&
      TakeRttSpanBudget()) {
    obs::EmitPointSpan("il.rtt", proto_->host(), trace_hi(), trace_lo(),
                       trace_parent(),
                       static_cast<uint64_t>(sample.count()));
  }
  // Van Jacobson smoothing, as adaptive as the paper demands.
  if (srtt_.count() == 0) {
    srtt_ = sample;
    mdev_ = sample / 2;
    return;
  }
  auto err = sample - srtt_;
  srtt_ += err / 8;
  mdev_ += (std::chrono::microseconds(std::abs(err.count())) - mdev_) / 4;
}

void IlConv::ArmTimerLocked(std::chrono::microseconds delay) {
  if (dying_) {
    return;  // teardown in progress: a re-armed timer would fire on freed state
  }
  CancelTimerLocked();
  timer_ = TimerWheel::Default().Schedule(delay,
                                          [this, gen = timer_gen_] { TimerFire(gen); });
}

void IlConv::CancelTimerLocked() {
  // A firing the wheel already collected cannot be cancelled; the new
  // generation makes it stale, so it leaves timer_ (the live timer) alone.
  timer_gen_++;
  if (timer_ != kNoTimer) {
    TimerWheel::Default().Cancel(timer_);
    timer_ = kNoTimer;
  }
}

void IlConv::TimerFire(uint64_t gen) {
  QLockGuard guard(lock_);
  if (gen != timer_gen_) {
    return;  // stale: re-armed or cancelled after the wheel collected it
  }
  timer_ = kNoTimer;
  switch (state_) {
    case State::kSyncer:
    case State::kSyncee:
      if (++sync_tries_ > kMaxSyncTries) {
        state_ = State::kClosed;
        err_ = kErrTimedOut;
        HangupLocked();
        break;
      }
      (void)EmitLocked(IlType::kSync, start_, state_ == State::kSyncee ? recvd_ : 0, {});
      backoff_++;
      ArmTimerLocked(RtoLocked());
      break;
    case State::kEstablished:
      if (unanswered_queries_ >= kDeadmanQueries) {
        metrics_.deadman_closes.Inc();
        // Recovery accounting: a conv reaped because its peer went silent
        // (crash, partition) — the chaos invariants assert on this.
        obs::MetricsRegistry::Default().CounterNamed("recovery.il.deadman-reaped").Inc();
        P9_TRACE(obs::TraceKind::kIl, StrFormat("il/%d", index_), "deadman close");
        state_ = State::kClosed;
        err_ = kErrTimedOut;
        HangupLocked();
        break;
      }
      if (unacked_.empty()) {
        // Nothing outstanding: keep-alive.  Real IL regularly queries idle
        // connections so a host holding a conversation its peer has
        // forgotten (crashed, or deadman-killed across a partition) finds
        // out, instead of blocking a reader forever.  Unanswered probes
        // feed the same deadman; any packet from the peer resets it, so an
        // idle connection rides out partitions shorter than the full
        // ladder (~kDeadmanQueries * kKeepaliveTime).
        metrics_.keepalives_sent.Inc();
        unanswered_queries_++;
        (void)EmitLocked(IlType::kQuery, next_ - 1, recvd_, {});
        ArmTimerLocked(kKeepaliveTime);
        break;
      }
      if (++backoff_ > kMaxBackoff) {
        state_ = State::kClosed;
        err_ = kErrTimedOut;
        HangupLocked();
        break;
      }
      // "In contrast to other protocols, IL does not do blind retransmission.
      // If a message is lost and a timeout occurs, a query message is sent."
      metrics_.queries_sent.Inc();
      unanswered_queries_++;
      P9_TRACE(obs::TraceKind::kIl, StrFormat("il/%d", index_),
               StrFormat("query recvd=%u unacked=%zu", recvd_, unacked_.size()));
      (void)EmitLocked(IlType::kQuery, next_ - 1, recvd_, {});
      ArmTimerLocked(RtoLocked());
      break;
    case State::kClosing:
      if (++close_tries_ > kMaxCloseTries) {
        state_ = State::kClosed;
        HangupLocked();
        break;
      }
      (void)EmitLocked(IlType::kClose, next_, recvd_, {});
      ArmTimerLocked(RtoLocked());
      break;
    case State::kListening:
    case State::kClosed:
      break;
  }
  bool hangup = std::exchange(hangup_pending_, false);
  guard.Unlock();
  if (hangup) {
    CompleteHangup();
  }
  ready_.Wakeup();
  window_.Wakeup();
}

void IlConv::HandleAckLocked(uint32_t ack) {
  P9_TRACE(obs::TraceKind::kIl, StrFormat("il/%d", index_),
           StrFormat("ack %u", ack));
  bool advanced = false;
  bool first = true;
  while (!unacked_.empty() && static_cast<int32_t>(ack - unacked_.front().id) >= 0) {
    auto& msg = unacked_.front();
    if (first && !msg.retransmitted) {
      // Karn's rule, batch form: only the front message's timing is a clean
      // RTT.  Messages behind a repaired hole were delivered long before
      // the cumulative ack could name them — sampling those would smear
      // hole-repair stalls into srtt.
      RttSampleLocked(std::chrono::duration_cast<std::chrono::microseconds>(
          TimerWheel::Clock::now() - msg.sent_at));
    }
    first = false;
    unacked_.pop_front();
    advanced = true;
  }
  if (advanced) {
    backoff_ = 0;
    if (unacked_.empty()) {
      // All data acknowledged: drop to the keep-alive cadence.
      ArmTimerLocked(kKeepaliveTime);
    } else {
      ArmTimerLocked(RtoLocked());
    }
  }
}

void IlConv::DeliverDataLocked(uint32_t id, Bytes payload, bool is_query,
                               std::vector<BlockPtr>* deliveries) {
  int32_t delta = static_cast<int32_t>(id - recvd_);
  if (delta <= 0) {
    metrics_.dups_dropped.Inc();
    return;
  }
  if (delta > static_cast<int32_t>(kWindow)) {
    // "messages outside the window are discarded and must be retransmitted"
    metrics_.out_of_window.Inc();
    return;
  }
  if (delta == 1) {
    recvd_ = id;
    metrics_.msgs_received.Inc();
    metrics_.bytes_received.Inc(payload.size());
    deliveries->push_back(AllocDataBlock(std::move(payload), /*delim=*/true));
    // Drain any buffered successors.
    auto it = out_of_order_.find(recvd_ + 1);
    while (it != out_of_order_.end()) {
      recvd_++;
      metrics_.msgs_received.Inc();
      metrics_.bytes_received.Inc(it->second.size());
      deliveries->push_back(AllocDataBlock(std::move(it->second), /*delim=*/true));
      out_of_order_.erase(it);
      it = out_of_order_.find(recvd_ + 1);
    }
  } else {
    out_of_order_[id] = std::move(payload);
  }
}

void IlConv::Input(Ipv4Addr src, IlType type, uint16_t sport, uint32_t id, uint32_t ack,
                   Bytes payload) {
  std::vector<BlockPtr> deliveries;
  bool wake_ready = false;
  bool hangup = false;
  {
    QLockGuard guard(lock_);
    switch (state_) {
      case State::kSyncer:
        if (type == IlType::kSync && ack == start_) {
          // Our sync was acknowledged; the peer's id seeds our receive seq.
          rstart_ = id;
          recvd_ = id;
          state_ = State::kEstablished;
          backoff_ = 0;
          sync_tries_ = 0;
          (void)EmitLocked(IlType::kAck, next_ - 1, recvd_, {});
          wake_ready = true;
        }
        break;
      case State::kSyncee:
        if ((type == IlType::kAck || type == IlType::kData ||
             type == IlType::kDataQuery) &&
            ack == start_) {
          state_ = State::kEstablished;
          backoff_ = 0;
          sync_tries_ = 0;
          wake_ready = true;
          if (type == IlType::kData || type == IlType::kDataQuery) {
            DeliverDataLocked(id, std::move(payload), type == IlType::kDataQuery,
                              &deliveries);
            (void)EmitLocked(IlType::kAck, next_ - 1, recvd_, {});
          }
        } else if (type == IlType::kQuery && ack == start_) {
          // The peer is already established (it only queries once up) but
          // our sync-ack never registered here — its query acking our start
          // proves the handshake completed.  Without this transition the
          // conversation stalls until the sync retry timer happens to fire.
          state_ = State::kEstablished;
          backoff_ = 0;
          sync_tries_ = 0;
          metrics_.states_sent.Inc();
          (void)EmitLocked(IlType::kState, next_ - 1, recvd_, {});
          wake_ready = true;
        } else if (type == IlType::kSync) {
          // Duplicate sync from the peer: re-answer.
          (void)EmitLocked(IlType::kSync, start_, recvd_, {});
        }
        break;
      case State::kEstablished:
        // Any packet from the peer proves it is alive: feed the deadman.
        unanswered_queries_ = 0;
        switch (type) {
          case IlType::kSync:
            // Stale handshake duplicate; re-ack.
            (void)EmitLocked(IlType::kAck, next_ - 1, recvd_, {});
            break;
          case IlType::kData:
          case IlType::kDataQuery: {
            HandleAckLocked(ack);
            uint32_t before = recvd_;
            DeliverDataLocked(id, std::move(payload), type == IlType::kDataQuery,
                              &deliveries);
            if (recvd_ != before || type == IlType::kDataQuery) {
              // Acknowledge received data.  A DataQuery (retransmission)
              // demands an immediate ack even if nothing advanced.
              (void)EmitLocked(IlType::kAck, next_ - 1, recvd_, {});
            } else if (static_cast<int32_t>(id - recvd_) > 1) {
              // A gap: volunteer our state so the sender can repair the
              // hole without waiting out its timer (still no blind
              // retransmission — the sender resends only what's missing).
              metrics_.states_sent.Inc();
              (void)EmitLocked(IlType::kState, next_ - 1, recvd_, {});
            }
            break;
          }
          case IlType::kAck:
            HandleAckLocked(ack);
            break;
          case IlType::kQuery: {
            // "The receiver responds to a query" with its current state...
            metrics_.states_sent.Inc();
            HandleAckLocked(ack);
            (void)EmitLocked(IlType::kState, next_ - 1, recvd_, {});
            break;
          }
          case IlType::kState: {
            // ...and the sender retransmits what the state report shows
            // missing.  Only the *oldest* unacked message is resent (as a
            // DataQuery, provoking an immediate ack): later messages are
            // usually already buffered in the receiver's resequencing
            // window, so the cumulative ack jumps once the hole fills.
            // This is the antithesis of TCP's go-back-N.
            HandleAckLocked(ack);
            if (!unacked_.empty()) {
              // Rate-limit repairs: several State reports can name the same
              // hole; one Dataquery per half-RTT is enough.
              auto now = TimerWheel::Clock::now();
              auto min_gap = srtt_.count() > 0 ? srtt_ / 2 : kMinRto;
              if (now - last_rexmit_ >= min_gap ||
                  unacked_.front().id != last_rexmit_id_) {
                auto& msg = unacked_.front();
                msg.retransmitted = true;
                metrics_.retransmits.Inc();
                P9_TRACE(obs::TraceKind::kIl, StrFormat("il/%d", index_),
                         StrFormat("resend id=%u len=%zu", msg.id, msg.payload.size()));
                last_rexmit_ = now;
                last_rexmit_id_ = msg.id;
                (void)EmitLocked(IlType::kDataQuery, msg.id, recvd_, msg.payload);
              }
              ArmTimerLocked(RtoLocked());
            }
            break;
          }
          case IlType::kClose:
            (void)EmitLocked(IlType::kClose, next_, recvd_, {});
            state_ = State::kClosed;
            err_ = kErrClosed;
            HangupLocked();
            break;
        }
        break;
      case State::kClosing:
        if (type == IlType::kClose) {
          state_ = State::kClosed;
          HangupLocked();
        } else if (type == IlType::kQuery) {
          (void)EmitLocked(IlType::kState, next_ - 1, recvd_, {});
        }
        break;
      case State::kListening:
      case State::kClosed:
        if (type == IlType::kClose) {
          (void)EmitLocked(IlType::kClose, next_, recvd_, {});
        }
        break;
    }
    hangup = std::exchange(hangup_pending_, false);
  }
  for (auto& b : deliveries) {
    stream_->DeliverUp(std::move(b));
  }
  if (hangup) {
    CompleteHangup();
  }
  if (wake_ready) {
    ready_.Wakeup();
  }
  window_.Wakeup();
}

IlProto::IlProto(IpStack* ip) : ip_(ip) {
  ip_->RegisterProtocol(kIpProtoIl,
                        [this](IpPacket&& pkt) { Input(std::move(pkt)); });
}

IlProto::~IlProto() {
  ip_->UnregisterProtocol(kIpProtoIl);
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      QLockGuard cguard(c->lock_);
      c->dying_ = true;  // a racing TimerFire must not re-arm
      c->CancelTimerLocked();
    }
  }
  // No new packets or timer fires can reach a conversation now; wait out any
  // callback already executing.
  TimerWheel::Default().Drain();
}

void IlProto::Abort(const std::string& why) {
  std::vector<IlConv*> convs;
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      convs.push_back(c.get());
    }
  }
  for (IlConv* c : convs) {
    bool hangup = false;
    {
      QLockGuard guard(c->lock_);
      c->dying_ = true;  // a racing TimerFire must not re-arm
      if (c->state_ != IlConv::State::kClosed) {
        c->err_ = why;
        c->state_ = IlConv::State::kClosed;
        c->pending_.clear();  // listeners drop their queued calls too
        c->HangupLocked();
      } else {
        c->CancelTimerLocked();
      }
      hangup = std::exchange(c->hangup_pending_, false);
    }
    if (hangup) {
      c->CompleteHangup();
    }
    c->ready_.Wakeup();
    c->window_.Wakeup();
    c->incoming_.Wakeup();
  }
  // Wait out timer callbacks already executing; after Drain no conversation
  // can emit or re-arm.
  TimerWheel::Default().Drain();
}

Result<NetConv*> IlProto::Clone() {
  auto conv = AllocConv();
  if (!conv.ok()) {
    return conv.error();
  }
  return static_cast<NetConv*>(*conv);
}

Result<IlConv*> IlProto::AllocConv() {
  QLockGuard guard(lock_);
  for (auto& c : convs_) {
    bool reusable;
    {
      QLockGuard cguard(c->lock_);
      reusable = c->slot_free_ && c->state_ == IlConv::State::kClosed && c->refs.load() == 0;
    }
    if (reusable) {
      c->Recycle();
      QLockGuard cguard(c->lock_);
      c->slot_free_ = false;
      return c.get();
    }
  }
  if (convs_.size() >= MaxConvs()) {
    return Error(kErrNoConv);
  }
  convs_.push_back(std::make_unique<IlConv>(this, static_cast<int>(convs_.size())));
  IlConv* c = convs_.back().get();
  QLockGuard cguard(c->lock_);
  c->slot_free_ = false;
  return c;
}

NetConv* IlProto::Conv(size_t index) {
  QLockGuard guard(lock_);
  return index < convs_.size() ? convs_[index].get() : nullptr;
}

size_t IlProto::ConvCount() {
  QLockGuard guard(lock_);
  return convs_.size();
}

Result<std::string> IlProto::InfoText(NetConv* conv, const std::string& file) {
  if (file == "stats") {
    IlConv* c = static_cast<IlConv*>(conv);
    const IlConvMetrics& m = c->metrics();
    std::string out;
    auto line = [&](const char* key, const obs::Counter& v) {
      out += StrFormat("%s: %llu\n", key, static_cast<unsigned long long>(v.value()));
    };
    line("sent", m.msgs_sent);
    line("rcvd", m.msgs_received);
    line("txbytes", m.bytes_sent);
    line("rxbytes", m.bytes_received);
    line("rexmit", m.retransmits);
    line("queries", m.queries_sent);
    line("states", m.states_sent);
    line("dup", m.dups_dropped);
    line("outwin", m.out_of_window);
    line("keepalives", m.keepalives_sent);
    line("deadman", m.deadman_closes);
    out += StrFormat("rtt: %lld us\n", static_cast<long long>(c->Srtt().count()));
    return out;
  }
  return ProtoFiles::InfoText(conv, file);
}

IlConv* IlProto::SpawnFromSync(Ipv4Addr dst, Ipv4Addr src, uint16_t dport, uint16_t sport,
                               uint32_t peer_id, IlConv* listener) {
  auto spawned = AllocConv();
  if (!spawned.ok()) {
    return nullptr;
  }
  IlConv* nc = *spawned;
  uint32_t isn;
  {
    QLockGuard guard(lock_);
    isn = static_cast<uint32_t>(isn_rng_.Next());
  }
  {
    QLockGuard guard(nc->lock_);
    nc->state_ = IlConv::State::kSyncee;
    nc->laddr_ = dst;
    nc->lport_ = dport;
    nc->raddr_ = src;
    nc->rport_ = sport;
    nc->rstart_ = peer_id;
    nc->recvd_ = peer_id;
    nc->start_ = isn;
    nc->next_ = isn + 1;
    // Answer the sync: our initial id, acking theirs.
    (void)nc->EmitLocked(IlType::kSync, nc->start_, nc->recvd_, {});
    nc->ArmTimerLocked(nc->RtoLocked());
  }
  {
    QLockGuard guard(listener->lock_);
    listener->pending_.push_back(nc->index());
  }
  listener->incoming_.Wakeup();
  return nc;
}

void IlProto::Input(IpPacket&& pkt) {
  P9_HOT_ROOT("il.input");
  if (pkt.payload.size() < kIlHeaderSize) {
    return;
  }
  const uint8_t* h = pkt.payload.data();
  if (InetChecksum(h, Get16(h + 2) <= pkt.payload.size() ? Get16(h + 2)
                                                         : pkt.payload.size()) != 0) {
    return;  // corrupt
  }
  uint16_t len = Get16(h + 2);
  if (len < kIlHeaderSize || len > pkt.payload.size()) {
    return;
  }
  IlType type = static_cast<IlType>(h[4]);
  uint16_t sport = Get16(h + 6);
  uint16_t dport = Get16(h + 8);
  uint32_t id = Get32(h + 10);
  uint32_t ack = Get32(h + 14);
  // Reuse the packet's buffer for the payload: truncate the trailer, shift
  // out the header.  One memmove, no allocation on the receive path.
  Bytes payload = std::move(pkt.payload);
  payload.resize(len);
  payload.erase(payload.begin(), payload.begin() + kIlHeaderSize);

  // Demultiplex: exact conversation first, listener for Syncs second.
  IlConv* conv = nullptr;
  IlConv* listener = nullptr;
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      QLockGuard cguard(c->lock_);
      if (c->state_ != IlConv::State::kClosed &&
          c->state_ != IlConv::State::kListening && c->lport_ == dport &&
          c->rport_ == sport && c->raddr_ == pkt.src) {
        conv = c.get();
        break;
      }
    }
    if (conv == nullptr && type == IlType::kSync) {
      for (auto& c : convs_) {
        QLockGuard cguard(c->lock_);
        if (c->state_ == IlConv::State::kListening && c->lport_ == dport) {
          listener = c.get();
          break;
        }
      }
    }
  }
  if (conv != nullptr) {
    conv->Input(pkt.src, type, sport, id, ack, std::move(payload));
    return;
  }
  if (listener != nullptr) {
    SpawnFromSync(pkt.dst, pkt.src, dport, sport, id, listener);
    return;
  }
  // No conversation wants this packet.  Real IL resets traffic for
  // conversations it has no record of, so a peer probing a dead one (its
  // keep-alive, a query across our deadman kill) learns fast instead of
  // probing a black hole.  Syncs to closed ports stay silently ignored
  // (connection attempts ride their own retry ladder), and we never answer
  // a kClose with a kClose — that would ping-pong between two dead ends.
  if (type != IlType::kSync && type != IlType::kClose) {
    SendReset(pkt.dst, pkt.src, dport, sport, ack, id);
  }
}

void IlProto::SendReset(Ipv4Addr laddr, Ipv4Addr raddr, uint16_t lport, uint16_t rport,
                        uint32_t id, uint32_t ack) {
  Bytes pkt(kIlHeaderSize);
  uint8_t* h = pkt.data();
  Put16(h, 0);  // sum, filled below
  Put16(h + 2, static_cast<uint16_t>(pkt.size()));
  h[4] = static_cast<uint8_t>(IlType::kClose);
  h[5] = 0;  // spec
  Put16(h + 6, lport);
  Put16(h + 8, rport);
  Put32(h + 10, id);
  Put32(h + 14, ack);
  Put16(h, InetChecksum(pkt.data(), pkt.size()));
  (void)ip_->Send(kIpProtoIl, laddr, raddr, pkt);
}

}  // namespace plan9
