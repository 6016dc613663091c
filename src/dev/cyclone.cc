#include "src/dev/cyclone.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/hotcheck.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {
constexpr uint8_t kTagData = 0;
constexpr uint8_t kTagCredit = 1;
}  // namespace

CycloneConv::CycloneConv(CycloneProto* proto, int index)
    : ConvCore(proto, index, "cyclone.conv", "cyclone"), proto_(proto) {}

void CycloneConv::ResetLocked() {
  connected_ = false;
  link_ = -1;
  wire_ = nullptr;
  outstanding_ = 0;
}

Status CycloneConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  if (words[0] == "connect" && words.size() >= 2) {
    auto n = ParseU64(words[1]);
    if (!n) {
      return Error(kErrBadAddr);
    }
    QLockGuard pguard(proto_->lock_);
    if (*n >= proto_->links_.size()) {
      return Error("no such fiber link");
    }
    auto& link = proto_->links_[*n];
    if (link.bound != nullptr) {
      return Error(kErrInUse);
    }
    link.bound = this;
    {
      QLockGuard guard(lock_);
      link_ = static_cast<int>(*n);
      wire_ = link.wire;
      wend_ = link.end;
      connected_ = true;
    }
    link.wire->Attach(link.end, [this](Bytes frame) { WireInput(std::move(frame)); });
    return Status::Ok();
  }
  if (words[0] == "hangup") {
    CloseUser();
    return Status::Ok();
  }
  return Error(kErrBadCtl);
}

Status CycloneConv::WaitReady() {
  QLockGuard guard(lock_);
  if (!connected_) {
    return Error("not connected to a fiber");
  }
  return Status::Ok();
}

std::string CycloneConv::Local() {
  QLockGuard guard(lock_);
  return StrFormat("cyclone!%d\n", link_);
}

std::string CycloneConv::Remote() { return Local(); }

std::string CycloneConv::StatusText() {
  QLockGuard guard(lock_);
  return StrFormat("cyclone/%d %d %s link %d\n", index_, refs.load(),
                   connected_ ? "Established" : "Closed", link_);
}

void CycloneConv::Close() {
  int link;
  {
    QLockGuard guard(lock_);
    link = link_;
    connected_ = false;
    link_ = -1;
    HangupLocked("");
  }
  if (link >= 0) {
    QLockGuard pguard(proto_->lock_);
    if (static_cast<size_t>(link) < proto_->links_.size() &&
        proto_->links_[link].bound == this) {
      proto_->links_[link].wire->Detach(proto_->links_[link].end);
      proto_->links_[link].bound = nullptr;
    }
  }
  // Wait out wire callbacks in flight: they hold `this`.
  TimerWheel::Default().Drain();
}

void CycloneConv::Abandon(const std::string& why) {
  QLockGuard guard(lock_);
  connected_ = false;
  link_ = -1;
  wire_ = nullptr;
  HangupLocked(why);
}

Status CycloneConv::SendMessage(Bytes msg) {
  Wire* wire = nullptr;
  Wire::End end = Wire::kA;
  {
    QLockGuard guard(lock_);
    window_.Sleep(lock_, [&]() REQUIRES(lock_) { return !connected_ || outstanding_ < kMaxOutstanding; });
    if (!connected_) {
      return Error(kErrHungup);
    }
    outstanding_ += msg.size();
    wire = wire_;
    end = wend_;
  }
  Bytes frame;
  frame.reserve(1 + msg.size());
  frame.push_back(kTagData);
  frame.insert(frame.end(), msg.begin(), msg.end());
  return wire->Send(end, std::move(frame));
}

void CycloneConv::WireInput(Bytes frame) {
  P9_HOT_ROOT("cyclone.input");
  if (frame.empty()) {
    return;
  }
  if (frame[0] == kTagCredit) {
    if (frame.size() >= 5) {
      uint32_t n = static_cast<uint32_t>(frame[1]) | static_cast<uint32_t>(frame[2]) << 8 |
                   static_cast<uint32_t>(frame[3]) << 16 |
                   static_cast<uint32_t>(frame[4]) << 24;
      QLockGuard guard(lock_);
      outstanding_ = n > outstanding_ ? 0 : outstanding_ - n;
    }
    window_.Wakeup();
    return;
  }
  // Data: deliver and return credit for the consumed bytes.  The wire
  // buffer becomes the block payload (shift the tag byte out in place).
  size_t n = frame.size() - 1;
  frame.erase(frame.begin());
  stream_->DeliverUp(AllocDataBlock(std::move(frame), /*delim=*/true));
  Wire* wire = nullptr;
  Wire::End end = Wire::kA;
  {
    QLockGuard guard(lock_);
    if (!connected_) {
      return;
    }
    wire = wire_;
    end = wend_;
  }
  Bytes credit{kTagCredit, static_cast<uint8_t>(n), static_cast<uint8_t>(n >> 8),
               static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 24)};
  (void)wire->Send(end, std::move(credit));
}

void CycloneProto::Unplug() {
  {
    QLockGuard guard(lock_);
    if (unplugged_) {
      return;
    }
    unplugged_ = true;
    for (auto& link : links_) {
      if (link.bound != nullptr) {
        link.wire->Detach(link.end);
        link.bound = nullptr;
      }
    }
  }
  Abort("");
}

int CycloneProto::AddLink(Wire* wire, Wire::End end) {
  QLockGuard guard(lock_);
  links_.push_back(Link{wire, end, nullptr});
  return static_cast<int>(links_.size() - 1);
}

Result<std::string> CycloneProto::InfoText(NetConv* conv, const std::string& file) {
  if (file == "stats") {
    auto* cc = static_cast<CycloneConv*>(conv);
    Wire* wire;
    Wire::End tx_end;
    int link;
    {
      QLockGuard guard(cc->lock_);
      wire = cc->wire_;
      tx_end = cc->wend_;
      link = cc->link_;
    }
    if (wire == nullptr) {
      return std::string("link: none\n");
    }
    Wire::End rx_end = tx_end == Wire::kA ? Wire::kB : Wire::kA;
    const MediaStats& tx = wire->stats(tx_end);
    const MediaStats& rx = wire->stats(rx_end);
    std::string out = StrFormat("link: %d\n", link);
    out += StrFormat("out: %llu\n",
                     static_cast<unsigned long long>(tx.frames_sent.value()));
    out += StrFormat("in: %llu\n",
                     static_cast<unsigned long long>(rx.frames_delivered.value()));
    out += StrFormat("drop: %llu\n",
                     static_cast<unsigned long long>(tx.frames_dropped.value()));
    out += StrFormat("oerrs: %llu\n",
                     static_cast<unsigned long long>(tx.send_errors.value()));
    out += FormatFaultStats(wire->fault_stats(tx_end), "tx-fault-");
    out += FormatFaultStats(wire->fault_stats(rx_end), "rx-fault-");
    return out;
  }
  return NetProto::InfoText(conv, file);
}

}  // namespace plan9
