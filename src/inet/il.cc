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

constexpr size_t kIlHeaderSize = 18;

// Timing bounds.  Plan 9 used coarse ticks; we work in microseconds with the
// same adaptive structure.  The backoff doubling is capped: a query is one
// tiny control message, so IL keeps probing rather than going silent for
// seconds the way a blind retransmitter must.
constexpr RttEstimator::Bounds kRttBounds{.min = std::chrono::microseconds(20'000),
                                          .max = std::chrono::microseconds(2'000'000),
                                          .initial = std::chrono::microseconds(100'000),
                                          .max_doublings = 5};
constexpr auto kMinRto = kRttBounds.min;
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

// Fills in the header at the front of `pkt`, whose payload is already in
// place, and checksums the whole packet.
void SealPacket(Bytes& pkt, IlType type, uint16_t sport, uint16_t dport, uint32_t id,
                uint32_t ack) {
  uint8_t* h = pkt.data();
  Put16(h, 0);  // sum, filled below
  Put16(h + 2, static_cast<uint16_t>(pkt.size()));
  h[4] = static_cast<uint8_t>(type);
  h[5] = 0;  // spec
  Put16(h + 6, sport);
  Put16(h + 8, dport);
  Put32(h + 10, id);
  Put32(h + 14, ack);
  Put16(h, InetChecksum(pkt.data(), pkt.size()));
}

// A close for a packet no conversation wants, acking its id.
void SendReset(IpStack* ip, Ipv4Addr laddr, Ipv4Addr raddr, uint16_t lport, uint16_t rport,
               uint32_t id, uint32_t ack) {
  Bytes pkt(kIlHeaderSize);
  SealPacket(pkt, IlType::kClose, lport, rport, id, ack);
  (void)ip->Send(kIpProtoIl, laddr, raddr, pkt);
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

IlConv::IlConv(IpConvTable<IlConv>* proto, int index)
    : IpConv(proto, index, "il.conv", "il"),
      rtt_(kRttBounds),
      metrics_(proto->obs().metrics()) {}

void IlConv::ResetLocked() {
  state_ = State::kClosed;
  laddr_ = raddr_ = Ipv4Addr{};
  lport_ = rport_ = 0;
  start_ = next_ = rstart_ = recvd_ = 0;
  unacked_.clear();
  out_of_order_.clear();
  rtt_.Reset();
  sync_tries_ = 0;
  close_tries_ = 0;
  unanswered_queries_ = 0;
  metrics_.Reset();
}

Status IlConv::ConnectLocked(uint32_t isn) {
  // "Connection setup uses a two way handshake to generate initial
  // sequence numbers at each end of the connection."
  start_ = isn;
  next_ = start_ + 1;
  state_ = State::kSyncer;
  sync_tries_ = 0;
  Status emit = EmitLocked(IlType::kSync, start_, 0, {});
  ArmTimerLocked(rtt_.Rto());
  return emit;
}

bool IlConv::AcceptLocked(IlConv* listener, uint32_t isn, uint32_t peer_id) {
  state_ = State::kSyncee;
  rstart_ = peer_id;
  recvd_ = peer_id;
  start_ = isn;
  next_ = isn + 1;
  // Answer the sync: our initial id, acking theirs.
  (void)EmitLocked(IlType::kSync, start_, recvd_, {});
  ArmTimerLocked(rtt_.Rto());
  return true;
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

std::string IlConv::StatusText() {
  QLockGuard guard(lock_);
  // The paper's one-line conversation summary: state, local/remote address,
  // bytes each way (plus IL's adaptive-timeout state for good measure).
  return StrFormat("il/%d %d %s %s!%u %s!%u tx %llu rx %llu rtt %lld us unacked %zu%s\n",
                   index_, refs.load(), StateName(state_),
                   IpToString(ShownLocalLocked()).c_str(), lport_, IpToString(raddr_).c_str(),
                   rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()),
                   static_cast<long long>(rtt_.srtt().count()), unacked_.size(),
                   TraceNote().c_str());
}

std::chrono::microseconds IlConv::Srtt() {
  QLockGuard guard(lock_);
  return rtt_.srtt();
}

void IlConv::Close() {
  QLockGuard guard(lock_);
  switch (state_) {
    case State::kEstablished:
      state_ = State::kClosing;
      close_tries_ = 0;
      (void)EmitLocked(IlType::kClose, next_, recvd_, {});
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kClosing:
      break;
    default:  // announced, mid-handshake, or never connected
      CloseLocked(kErrClosed);
      break;
  }
}

void IlConv::Abandon(const std::string& why) {
  QLockGuard guard(lock_);
  CloseLocked(why);
}

void IlConv::CloseLocked(std::string_view why) {
  state_ = State::kClosed;
  HangupLocked(why);
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
  P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kIl,
           StrFormat("il/%d", index_), StrFormat("send id=%u len=%zu", id, payload.size()));
  // The retransmit buffer takes the payload by move; the wire frame is
  // serialized from it, so the user's message is copied exactly once (into
  // the packet).
  unacked_.push_back(Unacked{id, std::move(payload), TimerWheel::Clock::now(), false});
  Status s = EmitLocked(IlType::kData, id, recvd_, unacked_.back().payload);
  if (unacked_.size() == 1) {
    // First outstanding message: the pending timer (if any) is ticking at
    // the keep-alive cadence — rearm at the retransmit timeout.
    ArmTimerLocked(rtt_.Rto());
  }
  return s;
}

Status IlConv::EmitLocked(IlType type, uint32_t id, uint32_t ack, const Bytes& payload) {
  Bytes pkt(kIlHeaderSize + payload.size());
  if (!payload.empty()) {
    std::memcpy(pkt.data() + kIlHeaderSize, payload.data(), payload.size());
  }
  SealPacket(pkt, type, lport_, rport_, id, ack);
  return ip_->Send(kIpProtoIl, laddr_, raddr_, pkt);
}

void IlConv::RttSampleLocked(std::chrono::microseconds sample) {
  obs::Context& ctx = proto_->obs();
  ctx.stats().il_rtt.Record(static_cast<uint64_t>(sample.count()));
  // A sampled-trace conversation attributes its first RTT measurements to
  // its trace as `il.rtt` point spans parented on the dial.connect span
  // that created the conversation (DESIGN.md §12).  Bounded by the per-
  // capture budget and gated on sampling still being on, so turning
  // sampling off quiesces the ring and trace harvesting over IL never
  // feeds back into the trace.
  if (ctx.recorder().enabled(obs::TraceKind::kSpan) &&
      ctx.tracer().sample_interval() != 0 && trace_hi() != 0 && TakeRttSpanBudget()) {
    obs::EmitPointSpan("il.rtt", ctx, trace_hi(), trace_lo(), trace_parent(),
                       static_cast<uint64_t>(sample.count()));
  }
  rtt_.Sample(sample);
}

void IlConv::TimerLocked() {
  switch (state_) {
    case State::kSyncer:
    case State::kSyncee:
      if (++sync_tries_ > kMaxSyncTries) {
        CloseLocked(kErrTimedOut);
        break;
      }
      (void)EmitLocked(IlType::kSync, start_, state_ == State::kSyncee ? recvd_ : 0, {});
      rtt_.Backoff();
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kEstablished:
      if (unanswered_queries_ >= kDeadmanQueries) {
        metrics_.deadman_closes.Inc();
        // Recovery accounting: a conv reaped because its peer went silent
        // (crash, partition) — the chaos invariants assert on this.
        proto_->obs().stats().deadman_reaped.Inc();
        P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kIl,
                 StrFormat("il/%d", index_), "deadman close");
        CloseLocked(kErrTimedOut);
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
      if (rtt_.Backoff() > kMaxBackoff) {
        CloseLocked(kErrTimedOut);
        break;
      }
      // "In contrast to other protocols, IL does not do blind retransmission.
      // If a message is lost and a timeout occurs, a query message is sent."
      metrics_.queries_sent.Inc();
      unanswered_queries_++;
      P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kIl, StrFormat("il/%d", index_),
               StrFormat("query recvd=%u unacked=%zu", recvd_, unacked_.size()));
      (void)EmitLocked(IlType::kQuery, next_ - 1, recvd_, {});
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kClosing:
      if (++close_tries_ > kMaxCloseTries) {
        CloseLocked(kErrClosed);
        break;
      }
      (void)EmitLocked(IlType::kClose, next_, recvd_, {});
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kListening:
    case State::kClosed:
      break;
  }
}

void IlConv::HandleAckLocked(uint32_t ack) {
  P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kIl,
           StrFormat("il/%d", index_), StrFormat("ack %u", ack));
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
    rtt_.ResetBackoff();
    if (unacked_.empty()) {
      // All data acknowledged: drop to the keep-alive cadence.
      ArmTimerLocked(kKeepaliveTime);
    } else {
      ArmTimerLocked(rtt_.Rto());
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

void IlConv::Input(IlType type, uint32_t id, uint32_t ack, Bytes payload) {
  std::vector<BlockPtr> deliveries;
  bool wake_ready = false;
  bool hangup = false;
  Stream* stream;
  {
    QLockGuard guard(lock_);
    stream = stream_.get();
    switch (state_) {
      case State::kSyncer:
        if (type == IlType::kSync && ack == start_) {
          // Our sync was acknowledged; the peer's id seeds our receive seq.
          rstart_ = id;
          recvd_ = id;
          state_ = State::kEstablished;
          rtt_.ResetBackoff();
          sync_tries_ = 0;
          (void)EmitLocked(IlType::kAck, next_ - 1, recvd_, {});
          wake_ready = true;
        } else if (type == IlType::kClose && ack == start_) {
          // Nobody listens on the port: the peer refused our sync.
          CloseLocked(kErrConnRefused);
          wake_ready = true;
        }
        break;
      case State::kSyncee:
        if ((type == IlType::kAck || type == IlType::kData ||
             type == IlType::kDataQuery) &&
            ack == start_) {
          state_ = State::kEstablished;
          rtt_.ResetBackoff();
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
          rtt_.ResetBackoff();
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
              auto min_gap = rtt_.srtt().count() > 0 ? rtt_.srtt() / 2 : kMinRto;
              if (now - last_rexmit_ >= min_gap ||
                  unacked_.front().id != last_rexmit_id_) {
                auto& msg = unacked_.front();
                msg.retransmitted = true;
                metrics_.retransmits.Inc();
                P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kIl,
                         StrFormat("il/%d", index_),
                         StrFormat("resend id=%u len=%zu", msg.id, msg.payload.size()));
                last_rexmit_ = now;
                last_rexmit_id_ = msg.id;
                (void)EmitLocked(IlType::kDataQuery, msg.id, recvd_, msg.payload);
              }
              ArmTimerLocked(rtt_.Rto());
            }
            break;
          }
          case IlType::kClose:
            (void)EmitLocked(IlType::kClose, next_, recvd_, {});
            CloseLocked(kErrClosed);
            break;
        }
        break;
      case State::kClosing:
        if (type == IlType::kClose) {
          CloseLocked(kErrClosed);
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
    hangup = TakeHangupLocked();
  }
  for (auto& b : deliveries) {
    stream->DeliverUp(std::move(b));
  }
  if (hangup) {
    DeliverHangup();
  }
  if (wake_ready) {
    ready_.Wakeup();
  }
  window_.Wakeup();
}

IlProto::IlProto(IpStack* ip)
    : IpConvTable(ip, kIpProtoIl, "il.proto", 0xc0ffee, &IlProto::Input) {}

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
  return NetProto::InfoText(conv, file);
}

void IlProto::Input(IpConvTable<IlConv>& il, IpPacket&& pkt) {
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

  auto [conv, listener] = il.Demux(pkt.src, dport, sport);
  if (conv != nullptr) {
    conv->Input(type, id, ack, std::move(payload));
  } else if (listener != nullptr && type == IlType::kSync) {
    il.Spawn(pkt, dport, sport, listener, id);
  } else if (type != IlType::kClose) {
    // Nobody is home.  Like Plan 9's ilreject, answer with a close acking
    // the packet's id: a sync to a port nobody listens on is refused at once
    // instead of riding out its retry ladder, and a peer probing a
    // conversation we have no record of (its keep-alive, a query across our
    // deadman kill) learns fast instead of probing a black hole.  Never a
    // close for a close: that would ping-pong between two dead ends.
    SendReset(il.ip(), pkt.dst, pkt.src, dport, sport, ack, id);
  }
}

}  // namespace plan9
