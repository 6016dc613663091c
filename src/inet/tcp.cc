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

constexpr int kMaxBackoff = 16;
constexpr RttEstimator::Bounds kRttBounds{.min = std::chrono::microseconds(50'000),
                                          .max = std::chrono::microseconds(4'000'000),
                                          .initial = std::chrono::microseconds(150'000),
                                          .max_doublings = kMaxBackoff};
constexpr auto kTimeWait = std::chrono::microseconds(250'000);
constexpr int kMaxHandshakeTries = 8;

// Signed sequence comparison.
bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
bool SeqLeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }

// A reset for a segment no conversation wants.
void SendRst(IpStack* ip, Ipv4Addr src, Ipv4Addr dst, uint16_t sport, uint16_t dport,
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
  (void)ip->Send(kIpProtoTcp, src, dst, pkt);
}

}  // namespace

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

TcpConv::TcpConv(IpConvTable<TcpConv>* proto, int index)
    : IpConv(proto, index, "tcp.conv", "tcp"),
      rtt_(kRttBounds),
      metrics_(proto->obs().metrics()) {}

std::unique_ptr<StreamModule> TcpConv::NewModule() { return std::make_unique<Module>(this); }

void TcpConv::ResetLocked() {
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
  rtt_.Reset();
  handshake_tries_ = 0;
  listener_backref_ = nullptr;
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

Status TcpConv::ConnectLocked(uint32_t isn) {
  iss_ = isn;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  state_ = State::kSynSent;
  handshake_tries_ = 0;
  EmitLocked(kSyn, iss_, 0, 0);
  ArmTimerLocked(rtt_.Rto());
  return Status::Ok();
}

bool TcpConv::AcceptLocked(TcpConv* listener, uint32_t isn, uint32_t peer_seq) {
  state_ = State::kSynRcvd;
  irs_ = peer_seq;
  rcv_nxt_ = peer_seq + 1;
  iss_ = isn;
  snd_una_ = isn;
  snd_nxt_ = isn + 1;
  listener_backref_ = listener;  // queued for Listen once established
  EmitLocked(kSyn | kAck, isn, 0, 0);
  ArmTimerLocked(rtt_.Rto());
  return false;
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

std::string TcpConv::StatusText() {
  QLockGuard guard(lock_);
  // The paper's one-line `cat status` shape, extended with the addresses and
  // byte counts every protocol now reports uniformly.
  const char* mode = lport_ != 0 && rport_ == 0 ? "announce" : "connect";
  return StrFormat("tcp/%d %d %s %s %s!%u %s!%u tx %llu rx %llu%s\n", index_,
                   refs.load(), StateNameLocked(), mode,
                   IpToString(ShownLocalLocked()).c_str(), lport_, IpToString(raddr_).c_str(),
                   rport_,
                   static_cast<unsigned long long>(metrics_.bytes_sent.value()),
                   static_cast<unsigned long long>(metrics_.bytes_received.value()),
                   TraceNote().c_str());
}

std::chrono::microseconds TcpConv::Srtt() {
  QLockGuard guard(lock_);
  return rtt_.srtt();
}

void TcpConv::Close() {
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
    case State::kClosed:
    case State::kListen:
    case State::kSynSent:
    case State::kSynRcvd:
      CloseLocked("");
      break;
    default:
      break;
  }
}

void TcpConv::Abandon(const std::string& why) {
  QLockGuard guard(lock_);
  CloseLocked(why);  // no FIN, no RST: the peer sees only silence
}

void TcpConv::CloseLocked(std::string_view why) {
  state_ = State::kClosed;
  send_buf_.clear();
  HangupLocked(why);
}

Status TcpConv::QueueBytes(const uint8_t* data, size_t n) {
  size_t queued = 0;
  while (queued < n) {
    QLockGuard guard(lock_);
    window_.Sleep(lock_, [&]() REQUIRES(lock_) {
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
  if (snd_nxt_ != snd_una_ && !TimerArmedLocked()) {
    ArmTimerLocked(rtt_.Rto());
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
  if (!TimerArmedLocked()) {
    ArmTimerLocked(rtt_.Rto());
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
  // One segmented copy: std::copy walks the deque a chunk at a time.
  auto from = send_buf_.begin() + static_cast<std::ptrdiff_t>(payload_off);
  std::copy(from, from + static_cast<std::ptrdiff_t>(payload_len), h + kTcpHeaderSize);
  Put16(h + 16, InetChecksum(pkt.data(), pkt.size()));
  metrics_.segs_sent.Inc();
  (void)ip_->Send(kIpProtoTcp, laddr_, raddr_, pkt);
}

void TcpConv::RttSampleLocked(std::chrono::microseconds sample) {
  proto_->obs().stats().tcp_rtt.Record(static_cast<uint64_t>(sample.count()));
  rtt_.Sample(sample);
}

void TcpConv::TimerLocked() {
  switch (state_) {
    case State::kSynSent:
    case State::kSynRcvd:
      if (++handshake_tries_ > kMaxHandshakeTries) {
        CloseLocked(kErrTimedOut);
        break;
      }
      rtt_.Backoff();
      EmitLocked(state_ == State::kSynSent ? kSyn : (kSyn | kAck), iss_, 0, 0);
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kEstablished:
    case State::kCloseWait:
    case State::kFinWait1:
    case State::kClosing:
    case State::kLastAck:
      if (snd_nxt_ == snd_una_ && !fin_sent_) {
        break;
      }
      if (rtt_.Backoff() > kMaxBackoff) {
        CloseLocked(kErrTimedOut);
        break;
      }
      RetransmitLocked();
      ArmTimerLocked(rtt_.Rto());
      break;
    case State::kTimeWait:
      CloseLocked("");
      break;
    default:
      break;
  }
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
  P9_TRACE(proto_->obs().recorder(), obs::TraceKind::kTcp, StrFormat("tcp/%d", index_),
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
    rtt_.ResetBackoff();
    if (rtt_timing_ && SeqLeq(rtt_seg_seq_, ack)) {
      rtt_timing_ = false;
      RttSampleLocked(std::chrono::duration_cast<std::chrono::microseconds>(
          TimerWheel::Clock::now() - rtt_seg_sent_));
    }
    if (snd_una_ == snd_nxt_) {
      CancelTimerLocked();
    } else {
      ArmTimerLocked(rtt_.Rto());
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

void TcpConv::Input(uint32_t seq, uint32_t ack, uint16_t flags, uint16_t wnd,
                    Bytes payload) {
  std::vector<BlockPtr> deliveries;
  bool hangup_stream = false;
  bool hangup_reset = false;
  Stream* stream;
  {
    QLockGuard guard(lock_);
    stream = stream_.get();
    metrics_.segs_received.Inc();
    if (flags & kRst) {
      if (state_ != State::kClosed && state_ != State::kListen) {
        CloseLocked(state_ == State::kSynSent ? kErrConnRefused : "connection reset");
      }
      bool hangup = TakeHangupLocked();
      guard.Unlock();
      if (hangup) {
        DeliverHangup();
      }
      ready_.Wakeup();
      window_.Wakeup();
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
          rtt_.ResetBackoff();
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
          rtt_.ResetBackoff();
          CancelTimerLocked();
          // Tell the listener a call is ready for Listen()/accept.
          if (TcpConv* listener = listener_backref_; listener != nullptr) {
            guard.Unlock();
            listener->QueueCall(this);
            guard.Lock();
            if (state_ != State::kEstablished) {
              break;  // the announcement went away and took this call with it
            }
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
          CloseLocked("");
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
    hangup_reset = TakeHangupLocked();
  }
  for (auto& b : deliveries) {
    stream->DeliverUp(std::move(b));
  }
  if (hangup_reset) {
    DeliverHangup();
  } else if (hangup_stream) {
    // Peer sent FIN: readers see EOF once queued data drains.
    stream->Hangup();
  }
  ready_.Wakeup();
  window_.Wakeup();
}

TcpProto::TcpProto(IpStack* ip)
    : IpConvTable(ip, kIpProtoTcp, "tcp.proto", 0xfeedface, &TcpProto::Input) {}

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
  return NetProto::InfoText(conv, file);
}

void TcpProto::Input(IpConvTable<TcpConv>& tcp, IpPacket&& pkt) {
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

  auto [conv, listener] = tcp.Demux(pkt.src, dport, sport);
  if (conv != nullptr) {
    conv->Input(seq, ack, flags, wnd, std::move(payload));
  } else if (listener != nullptr && (flags & kSyn) && !(flags & kAck)) {
    tcp.Spawn(pkt, dport, sport, listener, seq);
  } else if (!(flags & kRst)) {
    // No one home: answer with RST so connects fail fast ("connection
    // refused") instead of timing out.
    SendRst(tcp.ip(), pkt.dst, pkt.src, dport, sport, seq + 1);
  }
}

}  // namespace plan9
