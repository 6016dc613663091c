#include "src/inet/tcp.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/obs/trace.h"
#include "src/task/hotcheck.h"

namespace plan9 {
namespace {

constexpr size_t kTcpHeaderSize = 20;

constexpr uint16_t kFin = 0x01;
constexpr uint16_t kSyn = 0x02;
constexpr uint16_t kRst = 0x04;
constexpr uint16_t kPsh = 0x08;
constexpr uint16_t kAck = 0x10;

constexpr auto kMinRto = std::chrono::microseconds(50'000);
constexpr auto kMaxRto = std::chrono::microseconds(4'000'000);
constexpr auto kInitialRtt = std::chrono::microseconds(150'000);
constexpr auto kTimeWait = std::chrono::microseconds(250'000);
constexpr int kMaxHandshakeTries = 8;
constexpr int kMaxBackoff = 16;

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

// Signed sequence comparison.
bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
bool SeqLeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }

}  // namespace

TcpConvMetrics::TcpConvMetrics() {
  auto& r = obs::MetricsRegistry::Default();
  segs_sent.BindParent(&r.CounterNamed("net.tcp.segs-sent"));
  segs_received.BindParent(&r.CounterNamed("net.tcp.segs-rcvd"));
  bytes_sent.BindParent(&r.CounterNamed("net.tcp.bytes-sent"));
  bytes_received.BindParent(&r.CounterNamed("net.tcp.bytes-rcvd"));
  retransmit_segs.BindParent(&r.CounterNamed("net.tcp.resends"));
  retransmit_bytes.BindParent(&r.CounterNamed("net.tcp.resend-bytes"));
  dup_segs.BindParent(&r.CounterNamed("net.tcp.dups"));
}

void TcpConvMetrics::Reset() {
  segs_sent.Reset();
  segs_received.Reset();
  bytes_sent.Reset();
  bytes_received.Reset();
  retransmit_segs.Reset();
  retransmit_bytes.Reset();
  dup_segs.Reset();
}

// Stream device module: TCP is a byte stream, so block and delimiter
// boundaries vanish into the send buffer.
class TcpConv::Module : public StreamModule {
 public:
  explicit Module(TcpConv* conv) : conv_(conv) {}
  std::string_view name() const override { return "tcp"; }

  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH {
    if (b->type != BlockType::kData) {
      DropBlock(std::move(b));
      return;
    }
    Status s = conv_->QueueBytes(b->payload(), b->size());
    RecycleBlock(std::move(b));  // bytes are in the send buffer; pool the node
    if (!s.ok()) {
      P9_LOG(kDebug) << "tcp send: " << s.error().message();
    }
  }

 private:
  TcpConv* conv_;
};

TcpConv::TcpConv(TcpProto* proto, int index) : proto_(proto) {
  index_ = index;
  stream_ = std::make_unique<Stream>(std::make_unique<Module>(this));
}

TcpConv::~TcpConv() {
  QLockGuard guard(lock_);
  CancelTimerLocked();
}

void TcpConv::Recycle() {
  QLockGuard guard(lock_);
  stream_ = std::make_unique<Stream>(std::make_unique<Module>(this));
  state_ = State::kClosed;
  laddr_ = raddr_ = Ipv4Addr{};
  lport_ = rport_ = 0;
  iss_ = snd_una_ = snd_nxt_ = 0;
  snd_wnd_ = kSendWindow;
  send_buf_.clear();
  fin_pending_ = fin_sent_ = fin_received_ = false;
  rtt_timing_ = false;
  irs_ = rcv_nxt_ = 0;
  out_of_order_.clear();
  srtt_ = mdev_ = std::chrono::microseconds(0);
  backoff_ = 0;
  handshake_tries_ = 0;
  pending_.clear();
  listener_backref_ = nullptr;
  err_.clear();
  metrics_.Reset();
}

const char* TcpConv::StateNameLocked() const {
  switch (state_) {
    case State::kClosed:
      return "Closed";
    case State::kListen:
      return "Listen";
    case State::kSynSent:
      return "Syn_sent";
    case State::kSynRcvd:
      return "Syn_rcvd";
    case State::kEstablished:
      return "Established";
    case State::kFinWait1:
      return "Finwait1";
    case State::kFinWait2:
      return "Finwait2";
    case State::kCloseWait:
      return "Close_wait";
    case State::kClosing:
      return "Closing";
    case State::kLastAck:
      return "Last_ack";
    case State::kTimeWait:
      return "Time_wait";
  }
  return "?";
}

Status TcpConv::Ctl(const std::string& msg) {
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
    state_ = State::kListen;
    return Status::Ok();
  }
  if (words[0] == "hangup" || words[0] == "reject") {
    CloseUser();
    return Status::Ok();
  }
  if (words[0] == "accept") {
    return Status::Ok();
  }
  return Error(kErrBadCtl);
}

Status TcpConv::StartConnect(const HostPort& dest) {
  P9_ASSIGN_OR_RETURN(Ipv4Addr laddr, proto_->ip()->SourceFor(dest.addr));
  uint16_t ephemeral;
  uint32_t isn;
  {
    QLockGuard pguard(proto_->lock_);
    ephemeral = proto_->ports_.Next();
    isn = static_cast<uint32_t>(proto_->isn_rng_.Next());
  }
  QLockGuard guard(lock_);
  if (state_ != State::kClosed) {
    return Error("connection already in use");
  }
  laddr_ = laddr;
  raddr_ = dest.addr;
  lport_ = ephemeral;
  rport_ = dest.port;
  iss_ = isn;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  state_ = State::kSynSent;
  handshake_tries_ = 0;
  EmitLocked(kSyn, iss_, 0, 0);
  ArmTimerLocked(RtoLocked());
  return Status::Ok();
}

Status TcpConv::WaitReady() {
  QLockGuard guard(lock_);
  if (state_ == State::kListen) {
    return Status::Ok();
  }
  bool done = ready_.SleepFor(lock_, std::chrono::seconds(15), [&]() REQUIRES(lock_) {
    return state_ == State::kEstablished || state_ == State::kClosed ||
           state_ == State::kCloseWait;
  });
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    return Status::Ok();
  }
  if (!done) {
    return Error(kErrTimedOut);
  }
  return Error(err_.empty() ? std::string(kErrConnRefused) : err_);
}

Result<int> TcpConv::Listen() {
  QLockGuard guard(lock_);
  if (state_ != State::kListen) {
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

std::string TcpConv::Local() {
  QLockGuard guard(lock_);
  Ipv4Addr shown = laddr_.IsUnspecified() ? proto_->ip()->PrimaryAddr() : laddr_;
  return StrFormat("%s %u\n", IpToString(shown).c_str(), lport_);
}

std::string TcpConv::Remote() {
  QLockGuard guard(lock_);
  return StrFormat("%s %u\n", IpToString(raddr_).c_str(), rport_);
}

std::string TcpConv::StatusText() {
  QLockGuard guard(lock_);
  // The paper's one-line `cat status` shape, extended with the addresses and
  // byte counts every protocol now reports uniformly.
  const char* mode = lport_ != 0 && rport_ == 0 ? "announce" : "connect";
  Ipv4Addr shown = laddr_.IsUnspecified() ? proto_->ip()->PrimaryAddr() : laddr_;
  return StrFormat("tcp/%d %d %s %s %s!%u %s!%u tx %llu rx %llu%s\n", index_,
                   refs.load(), StateNameLocked(), mode,
                   IpToString(shown).c_str(), lport_, IpToString(raddr_).c_str(),
                   rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()),
                   TraceNote().c_str());
}

std::chrono::microseconds TcpConv::Srtt() {
  QLockGuard guard(lock_);
  return srtt_;
}

void TcpConv::CloseUser() {
  std::deque<int> orphans;
  bool hangup = false;
  {
    QLockGuard guard(lock_);
    switch (state_) {
      case State::kEstablished:
        state_ = State::kFinWait1;
        fin_pending_ = true;
        MaybeSendFinLocked();
        break;
      case State::kCloseWait:
        state_ = State::kLastAck;
        fin_pending_ = true;
        MaybeSendFinLocked();
        break;
      case State::kListen:
        orphans.swap(pending_);
        state_ = State::kClosed;
        ResetLocked("");
        break;
      case State::kSynSent:
      case State::kSynRcvd:
        state_ = State::kClosed;
        ResetLocked("");
        break;
      default:
        break;
    }
    hangup = std::exchange(hangup_pending_, false);
  }
  if (hangup) {
    CompleteHangup();
  }
  ready_.Wakeup();
  sendbuf_space_.Wakeup();
  incoming_.Wakeup();
  for (int idx : orphans) {
    if (NetConv* c = proto_->Conv(static_cast<size_t>(idx)); c != nullptr) {
      c->CloseUser();
    }
  }
}

void TcpConv::ResetLocked(const std::string& why) {
  if (!why.empty() && err_.empty()) {
    err_ = why;
  }
  state_ = State::kClosed;
  send_buf_.clear();
  // Not stream_->Hangup() here: that takes the stream chain lock, which the
  // user write path holds while acquiring lock_.  Callers drain the flag
  // once lock_ is dropped.
  hangup_pending_ = true;
  CancelTimerLocked();
}

void TcpConv::CompleteHangup() {
  stream_->Hangup();
  // Publish the slot only now: AllocConv may Recycle() a free slot, which
  // replaces stream_ — that must not happen while the old stream is still
  // delivering the hangup.
  QLockGuard guard(lock_);
  slot_free_ = true;
}

Status TcpConv::QueueBytes(const uint8_t* data, size_t n) {
  size_t queued = 0;
  while (queued < n) {
    QLockGuard guard(lock_);
    sendbuf_space_.Sleep(lock_, [&]() REQUIRES(lock_) {
      return send_buf_.size() < kSendBufMax ||
             (state_ != State::kEstablished && state_ != State::kCloseWait);
    });
    if (state_ != State::kEstablished && state_ != State::kCloseWait) {
      return Error(err_.empty() ? std::string(kErrHungup) : err_);
    }
    size_t room = kSendBufMax - send_buf_.size();
    size_t take = std::min(room, n - queued);
    send_buf_.insert(send_buf_.end(), data + queued, data + queued + take);
    queued += take;
    TrySendLocked();
  }
  return Status::Ok();
}

void TcpConv::TrySendLocked() {
  // Send as much of [snd_nxt, snd_una+window) as the buffer allows.
  size_t window = std::min<size_t>(snd_wnd_, kSendWindow);
  for (;;) {
    uint32_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) {
      break;
    }
    size_t buf_off = snd_nxt_ - snd_una_;  // == in_flight for data bytes
    if (buf_off >= send_buf_.size()) {
      break;  // nothing unsent
    }
    size_t can_send = std::min({send_buf_.size() - buf_off, window - in_flight, kMss});
    if (can_send == 0) {
      break;
    }
    if (!rtt_timing_) {
      rtt_timing_ = true;
      rtt_seg_seq_ = snd_nxt_ + static_cast<uint32_t>(can_send);
      rtt_seg_sent_ = TimerWheel::Clock::now();
    }
    EmitLocked(kAck | kPsh, snd_nxt_, buf_off, can_send);
    snd_nxt_ += static_cast<uint32_t>(can_send);
    metrics_.bytes_sent.Inc(can_send);
  }
  MaybeSendFinLocked();
  if (snd_nxt_ != snd_una_ && timer_ == kNoTimer) {
    ArmTimerLocked(RtoLocked());
  }
}

void TcpConv::MaybeSendFinLocked() {
  if (!fin_pending_ || fin_sent_) {
    return;
  }
  size_t buf_off = snd_nxt_ - snd_una_;
  if (buf_off < send_buf_.size()) {
    return;  // data still unsent; FIN follows it
  }
  EmitLocked(kFin | kAck, snd_nxt_, 0, 0);
  snd_nxt_ += 1;  // FIN consumes a sequence number
  fin_sent_ = true;
  if (timer_ == kNoTimer) {
    ArmTimerLocked(RtoLocked());
  }
}

void TcpConv::EmitLocked(uint16_t flags, uint32_t seq, size_t payload_off,
                         size_t payload_len) {
  Bytes pkt(kTcpHeaderSize + payload_len);
  uint8_t* h = pkt.data();
  Put16(h, lport_);
  Put16(h + 2, rport_);
  Put32(h + 4, seq);
  Put32(h + 8, (flags & kAck) ? rcv_nxt_ : 0);
  Put16(h + 12, static_cast<uint16_t>(5 << 12 | (flags & 0x3f)));
  Put16(h + 14, 0xffff);  // our receive window: effectively unbounded buffer
  Put16(h + 16, 0);
  Put16(h + 18, 0);
  for (size_t i = 0; i < payload_len; i++) {
    pkt[kTcpHeaderSize + i] = send_buf_[payload_off + i];
  }
  Put16(h + 16, InetChecksum(pkt.data(), pkt.size()));
  metrics_.segs_sent.Inc();
  (void)proto_->ip()->Send(kIpProtoTcp, laddr_, raddr_, pkt);
}

std::chrono::microseconds TcpConv::RtoLocked() const {
  auto base = srtt_.count() == 0 ? kInitialRtt : srtt_ + 4 * mdev_;
  for (int i = 0; i < backoff_ && base < kMaxRto; i++) {
    base *= 2;
  }
  return std::clamp(base, kMinRto, kMaxRto);
}

void TcpConv::RttSampleLocked(std::chrono::microseconds sample) {
  static obs::Histogram& hist =
      obs::MetricsRegistry::Default().HistogramNamed("net.tcp.rtt");
  hist.Record(static_cast<uint64_t>(sample.count()));
  if (srtt_.count() == 0) {
    srtt_ = sample;
    mdev_ = sample / 2;
    return;
  }
  auto err = sample - srtt_;
  srtt_ += err / 8;
  mdev_ += (std::chrono::microseconds(std::abs(err.count())) - mdev_) / 4;
}

void TcpConv::ArmTimerLocked(std::chrono::microseconds delay) {
  if (dying_) {
    return;
  }
  CancelTimerLocked();
  timer_ = TimerWheel::Default().Schedule(delay,
                                          [this, gen = timer_gen_] { TimerFire(gen); });
}

void TcpConv::CancelTimerLocked() {
  // As IlConv::CancelTimerLocked: a firing already collected goes stale.
  timer_gen_++;
  if (timer_ != kNoTimer) {
    TimerWheel::Default().Cancel(timer_);
    timer_ = kNoTimer;
  }
}

void TcpConv::TimerFire(uint64_t gen) {
  QLockGuard guard(lock_);
  if (gen != timer_gen_) {
    return;  // stale: re-armed or cancelled after the wheel collected it
  }
  timer_ = kNoTimer;
  switch (state_) {
    case State::kSynSent:
    case State::kSynRcvd:
      if (++handshake_tries_ > kMaxHandshakeTries) {
        ResetLocked(kErrTimedOut);
        break;
      }
      backoff_++;
      EmitLocked(state_ == State::kSynSent ? kSyn : (kSyn | kAck), iss_, 0, 0);
      ArmTimerLocked(RtoLocked());
      break;
    case State::kEstablished:
    case State::kCloseWait:
    case State::kFinWait1:
    case State::kClosing:
    case State::kLastAck:
      if (snd_nxt_ == snd_una_ && !fin_sent_) {
        break;
      }
      if (++backoff_ > kMaxBackoff) {
        ResetLocked(kErrTimedOut);
        break;
      }
      RetransmitLocked();
      ArmTimerLocked(RtoLocked());
      break;
    case State::kTimeWait:
      state_ = State::kClosed;
      slot_free_ = true;
      break;
    default:
      break;
  }
  bool hangup = std::exchange(hangup_pending_, false);
  guard.Unlock();
  if (hangup) {
    CompleteHangup();
  }
  ready_.Wakeup();
  sendbuf_space_.Wakeup();
}

void TcpConv::RetransmitLocked() {
  // Blind go-back-N: rewind snd_nxt to snd_una and resend everything in the
  // window, whether or not the receiver already has it.  (The behaviour the
  // paper's IL design argues against — measured by bench_loss.)
  uint32_t to_resend = snd_nxt_ - snd_una_;
  bool fin_in_flight = fin_sent_;
  snd_nxt_ = snd_una_;
  fin_sent_ = false;
  rtt_timing_ = false;  // Karn: don't time retransmitted data
  P9_TRACE(obs::TraceKind::kTcp, StrFormat("tcp/%d", index_),
           StrFormat("rexmit una=%u nxt=%u", snd_una_, snd_nxt_));
  size_t off = 0;
  size_t data_len = std::min<size_t>(to_resend, send_buf_.size());
  while (off < data_len) {
    size_t chunk = std::min(data_len - off, kMss);
    EmitLocked(kAck | kPsh, snd_nxt_, off, chunk);
    snd_nxt_ += static_cast<uint32_t>(chunk);
    off += chunk;
    metrics_.retransmit_segs.Inc();
    metrics_.retransmit_bytes.Inc(chunk);
  }
  if (fin_in_flight) {
    EmitLocked(kFin | kAck, snd_nxt_, 0, 0);
    snd_nxt_ += 1;
    fin_sent_ = true;
    metrics_.retransmit_segs.Inc();
  }
}

void TcpConv::ProcessAckLocked(uint32_t ack, uint16_t wnd) {
  snd_wnd_ = wnd;
  if (SeqLt(snd_una_, ack) && SeqLeq(ack, snd_nxt_)) {
    uint32_t advance = ack - snd_una_;
    // FIN occupies sequence space beyond the data buffer.
    size_t data_acked = std::min<size_t>(advance, send_buf_.size());
    send_buf_.erase(send_buf_.begin(),
                    send_buf_.begin() + static_cast<long>(data_acked));
    snd_una_ = ack;
    backoff_ = 0;
    if (rtt_timing_ && SeqLeq(rtt_seg_seq_, ack)) {
      rtt_timing_ = false;
      RttSampleLocked(std::chrono::duration_cast<std::chrono::microseconds>(
          TimerWheel::Clock::now() - rtt_seg_sent_));
    }
    if (snd_una_ == snd_nxt_) {
      CancelTimerLocked();
    } else {
      ArmTimerLocked(RtoLocked());
    }
    TrySendLocked();
  }
}

void TcpConv::ProcessDataLocked(uint32_t seq, Bytes payload, bool fin,
                                std::vector<BlockPtr>* deliveries, bool* peer_closed) {
  if (fin) {
    // Remember where the FIN sits in sequence space via the ooo map: append
    // it as a zero-byte marker right after its data.
    fin_received_ = true;
  }
  if (!payload.empty()) {
    if (SeqLeq(seq + static_cast<uint32_t>(payload.size()), rcv_nxt_)) {
      metrics_.dup_segs.Inc();  // entirely old
    } else if (SeqLt(rcv_nxt_, seq)) {
      out_of_order_[seq] = std::move(payload);  // future data; buffer it
    } else {
      // Overlap or exact: trim the old prefix and deliver.  The segment
      // buffer moves into the block — no copy on the in-order path.
      size_t skip = rcv_nxt_ - seq;
      rcv_nxt_ = seq + static_cast<uint32_t>(payload.size());
      metrics_.bytes_received.Inc(payload.size() - skip);
      if (skip > 0) {
        payload.erase(payload.begin(), payload.begin() + static_cast<long>(skip));
      }
      deliveries->push_back(AllocDataBlock(std::move(payload),
                                           /*delim=*/false));  // TCP does not preserve delimiters
      // Drain contiguous out-of-order segments.
      for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
        uint32_t s = it->first;
        Bytes& data = it->second;
        uint32_t e = s + static_cast<uint32_t>(data.size());
        if (SeqLeq(e, rcv_nxt_)) {
          it = out_of_order_.erase(it);
          continue;
        }
        if (SeqLt(rcv_nxt_, s)) {
          break;  // hole remains
        }
        size_t skip2 = rcv_nxt_ - s;
        metrics_.bytes_received.Inc(data.size() - skip2);
        if (skip2 > 0) {
          data.erase(data.begin(), data.begin() + static_cast<long>(skip2));
        }
        deliveries->push_back(AllocDataBlock(std::move(data), /*delim=*/false));
        rcv_nxt_ = e;
        it = out_of_order_.erase(it);
      }
    }
  }
  if (fin_received_ && out_of_order_.empty()) {
    // FIN is in order once all data before it has arrived.
    rcv_nxt_ += 1;
    *peer_closed = true;
    fin_received_ = false;
  }
}

void TcpConv::EnterTimeWaitLocked() {
  state_ = State::kTimeWait;
  ArmTimerLocked(std::chrono::duration_cast<std::chrono::microseconds>(kTimeWait));
}

void TcpConv::Input(Ipv4Addr src, uint16_t sport, uint32_t seq, uint32_t ack,
                    uint16_t flags, uint16_t wnd, Bytes payload) {
  std::vector<BlockPtr> deliveries;
  bool hangup_stream = false;
  bool hangup_reset = false;
  {
    QLockGuard guard(lock_);
    metrics_.segs_received.Inc();
    if (flags & kRst) {
      if (state_ != State::kClosed && state_ != State::kListen) {
        ResetLocked(state_ == State::kSynSent ? kErrConnRefused : "connection reset");
      }
      bool hangup = std::exchange(hangup_pending_, false);
      guard.Unlock();
      if (hangup) {
        CompleteHangup();
      }
      ready_.Wakeup();
      sendbuf_space_.Wakeup();
      return;
    }
    switch (state_) {
      case State::kSynSent:
        if ((flags & (kSyn | kAck)) == (kSyn | kAck) && ack == snd_una_ + 1) {
          irs_ = seq;
          rcv_nxt_ = seq + 1;
          snd_una_ = ack;
          snd_wnd_ = wnd;
          state_ = State::kEstablished;
          handshake_tries_ = 0;
          backoff_ = 0;
          CancelTimerLocked();
          EmitLocked(kAck, snd_nxt_, 0, 0);
          ready_.Wakeup();
        }
        break;
      case State::kSynRcvd:
        if ((flags & kAck) && ack == snd_una_ + 1) {
          snd_una_ = ack;
          snd_wnd_ = wnd;
          state_ = State::kEstablished;
          backoff_ = 0;
          CancelTimerLocked();
          // Tell the listener a call is ready for Listen()/accept.
          if (TcpConv* listener = listener_backref_; listener != nullptr) {
            guard.Unlock();
            {
              QLockGuard lguard(listener->lock_);
              listener->pending_.push_back(index_);
            }
            listener->incoming_.Wakeup();
            guard.Lock();
          }
          ready_.Wakeup();
          // The handshake ACK may carry data; fall through is emulated by
          // reprocessing below.
          bool peer_closed = false;
          ProcessDataLocked(seq, std::move(payload), flags & kFin, &deliveries,
                            &peer_closed);
          if (peer_closed) {
            state_ = State::kCloseWait;
            hangup_stream = true;
            EmitLocked(kAck, snd_nxt_, 0, 0);
          }
        }
        break;
      case State::kEstablished:
      case State::kFinWait1:
      case State::kFinWait2:
      case State::kClosing:
      case State::kCloseWait:
      case State::kLastAck: {
        if (flags & kAck) {
          ProcessAckLocked(ack, wnd);
        }
        bool peer_closed = false;
        bool had_payload = !payload.empty();
        if (state_ != State::kCloseWait && state_ != State::kLastAck) {
          ProcessDataLocked(seq, std::move(payload), flags & kFin, &deliveries,
                            &peer_closed);
        }
        bool all_sent_acked = snd_una_ == snd_nxt_;
        // State transitions on our FIN being acked / their FIN arriving.
        if (state_ == State::kFinWait1 && fin_sent_ && all_sent_acked) {
          state_ = peer_closed ? State::kTimeWait : State::kFinWait2;
          if (state_ == State::kTimeWait) {
            EnterTimeWaitLocked();
          }
        } else if (state_ == State::kFinWait1 && peer_closed) {
          state_ = State::kClosing;
        } else if (state_ == State::kFinWait2 && peer_closed) {
          EnterTimeWaitLocked();
        } else if (state_ == State::kClosing && fin_sent_ && all_sent_acked) {
          EnterTimeWaitLocked();
        } else if (state_ == State::kLastAck && fin_sent_ && all_sent_acked) {
          state_ = State::kClosed;
          slot_free_ = true;
          CancelTimerLocked();
        } else if (state_ == State::kEstablished && peer_closed) {
          state_ = State::kCloseWait;
          hangup_stream = true;  // EOF for readers; writes still allowed
        }
        if (!deliveries.empty() || peer_closed || had_payload) {
          // Every data-bearing segment is acked — duplicates especially,
          // since a lost ack is exactly what made the peer retransmit.
          EmitLocked(kAck, snd_nxt_, 0, 0);
        }
        break;
      }
      case State::kTimeWait:
        EmitLocked(kAck, snd_nxt_, 0, 0);
        break;
      case State::kListen:
      case State::kClosed:
        break;
    }
    hangup_reset = std::exchange(hangup_pending_, false);
  }
  for (auto& b : deliveries) {
    stream_->DeliverUp(std::move(b));
  }
  if (hangup_reset) {
    CompleteHangup();
  } else if (hangup_stream) {
    // Peer sent FIN: readers see EOF once queued data drains.
    stream_->Hangup();
  }
  ready_.Wakeup();
  sendbuf_space_.Wakeup();
}

TcpProto::TcpProto(IpStack* ip) : ip_(ip) {
  ip_->RegisterProtocol(kIpProtoTcp,
                        [this](IpPacket&& pkt) { Input(std::move(pkt)); });
}

void TcpProto::Abort(const std::string& why) {
  std::vector<TcpConv*> convs;
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      convs.push_back(c.get());
    }
  }
  for (TcpConv* c : convs) {
    bool hangup = false;
    {
      QLockGuard guard(c->lock_);
      c->dying_ = true;  // a racing TimerFire must not re-arm
      if (c->state_ != TcpConv::State::kClosed) {
        c->err_ = why;
        c->pending_.clear();  // listeners drop their queued calls too
        c->ResetLocked(why);  // sets kClosed + hangup_pending_, emits nothing
      } else {
        c->CancelTimerLocked();
      }
      hangup = std::exchange(c->hangup_pending_, false);
    }
    if (hangup) {
      c->CompleteHangup();
    }
    c->ready_.Wakeup();
    c->sendbuf_space_.Wakeup();
    c->incoming_.Wakeup();
  }
  TimerWheel::Default().Drain();
}

TcpProto::~TcpProto() {
  ip_->UnregisterProtocol(kIpProtoTcp);
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      QLockGuard cguard(c->lock_);
      c->dying_ = true;
      c->CancelTimerLocked();
    }
  }
  TimerWheel::Default().Drain();
}

Result<NetConv*> TcpProto::Clone() {
  auto conv = AllocConv();
  if (!conv.ok()) {
    return conv.error();
  }
  return static_cast<NetConv*>(*conv);
}

Result<TcpConv*> TcpProto::AllocConv() {
  QLockGuard guard(lock_);
  for (auto& c : convs_) {
    bool reusable;
    {
      QLockGuard cguard(c->lock_);
      reusable =
          c->slot_free_ && c->state_ == TcpConv::State::kClosed && c->refs.load() == 0;
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
  convs_.push_back(std::make_unique<TcpConv>(this, static_cast<int>(convs_.size())));
  TcpConv* c = convs_.back().get();
  QLockGuard cguard(c->lock_);
  c->slot_free_ = false;
  return c;
}

NetConv* TcpProto::Conv(size_t index) {
  QLockGuard guard(lock_);
  return index < convs_.size() ? convs_[index].get() : nullptr;
}

size_t TcpProto::ConvCount() {
  QLockGuard guard(lock_);
  return convs_.size();
}

Result<std::string> TcpProto::InfoText(NetConv* conv, const std::string& file) {
  if (file == "stats") {
    TcpConv* c = static_cast<TcpConv*>(conv);
    const TcpConvMetrics& m = c->metrics();
    std::string out;
    auto line = [&](const char* key, const obs::Counter& v) {
      out += StrFormat("%s: %llu\n", key, static_cast<unsigned long long>(v.value()));
    };
    line("sent", m.segs_sent);
    line("rcvd", m.segs_received);
    line("bytes-sent", m.bytes_sent);
    line("bytes-rcvd", m.bytes_received);
    line("rexmit", m.retransmit_segs);
    line("rexmit-bytes", m.retransmit_bytes);
    line("dup", m.dup_segs);
    out += StrFormat("rtt: %lld us\n", static_cast<long long>(c->Srtt().count()));
    return out;
  }
  return ProtoFiles::InfoText(conv, file);
}

TcpConv* TcpProto::SpawnFromSyn(Ipv4Addr dst, Ipv4Addr src, uint16_t dport, uint16_t sport,
                                uint32_t peer_seq, TcpConv* listener) {
  auto spawned = AllocConv();
  if (!spawned.ok()) {
    return nullptr;
  }
  TcpConv* nc = *spawned;
  uint32_t isn;
  {
    QLockGuard guard(lock_);
    isn = static_cast<uint32_t>(isn_rng_.Next());
  }
  {
    QLockGuard guard(nc->lock_);
    nc->state_ = TcpConv::State::kSynRcvd;
    nc->laddr_ = dst;
    nc->lport_ = dport;
    nc->raddr_ = src;
    nc->rport_ = sport;
    nc->irs_ = peer_seq;
    nc->rcv_nxt_ = peer_seq + 1;
    nc->iss_ = isn;
    nc->snd_una_ = isn;
    nc->snd_nxt_ = isn + 1;
    nc->listener_backref_ = listener;
    nc->EmitLocked(kSyn | kAck, isn, 0, 0);
    nc->ArmTimerLocked(nc->RtoLocked());
  }
  return nc;
}

void TcpProto::SendRst(Ipv4Addr src, Ipv4Addr dst, uint16_t sport, uint16_t dport,
                       uint32_t ack) {
  Bytes pkt(kTcpHeaderSize);
  uint8_t* h = pkt.data();
  Put16(h, sport);
  Put16(h + 2, dport);
  Put32(h + 4, 0);
  Put32(h + 8, ack);
  Put16(h + 12, static_cast<uint16_t>(5 << 12 | kRst | kAck));
  Put16(h + 14, 0);
  Put16(h + 16, 0);
  Put16(h + 18, 0);
  Put16(h + 16, InetChecksum(pkt.data(), pkt.size()));
  (void)ip_->Send(kIpProtoTcp, src, dst, pkt);
}

void TcpProto::Input(IpPacket&& pkt) {
  P9_HOT_ROOT("tcp.input");
  if (pkt.payload.size() < kTcpHeaderSize) {
    return;
  }
  const uint8_t* h = pkt.payload.data();
  if (InetChecksum(h, pkt.payload.size()) != 0) {
    return;
  }
  uint16_t sport = Get16(h);
  uint16_t dport = Get16(h + 2);
  uint32_t seq = Get32(h + 4);
  uint32_t ack = Get32(h + 8);
  uint16_t off_flags = Get16(h + 12);
  uint16_t flags = off_flags & 0x3f;
  size_t header_len = static_cast<size_t>(off_flags >> 12) * 4;
  if (header_len < kTcpHeaderSize || header_len > pkt.payload.size()) {
    return;
  }
  uint16_t wnd = Get16(h + 14);
  // Reuse the packet's buffer for the payload (shift the header out in
  // place): no allocation on the receive path.
  Bytes payload = std::move(pkt.payload);
  payload.erase(payload.begin(), payload.begin() + static_cast<long>(header_len));

  TcpConv* conv = nullptr;
  TcpConv* listener = nullptr;
  {
    QLockGuard guard(lock_);
    for (auto& c : convs_) {
      QLockGuard cguard(c->lock_);
      if (c->state_ != TcpConv::State::kClosed && c->state_ != TcpConv::State::kListen &&
          c->lport_ == dport && c->rport_ == sport && c->raddr_ == pkt.src) {
        conv = c.get();
        break;
      }
    }
    if (conv == nullptr && (flags & kSyn) && !(flags & kAck)) {
      for (auto& c : convs_) {
        QLockGuard cguard(c->lock_);
        if (c->state_ == TcpConv::State::kListen && c->lport_ == dport) {
          listener = c.get();
          break;
        }
      }
    }
  }
  if (conv != nullptr) {
    conv->Input(pkt.src, sport, seq, ack, flags, wnd, std::move(payload));
    return;
  }
  if (listener != nullptr) {
    SpawnFromSyn(pkt.dst, pkt.src, dport, sport, seq, listener);
    return;
  }
  // No one home: answer with RST so connects fail fast ("connection
  // refused") instead of timing out.
  if (!(flags & kRst)) {
    SendRst(pkt.dst, pkt.src, dport, sport, seq + 1);
  }
}

}  // namespace plan9
