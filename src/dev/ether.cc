#include "src/dev/ether.h"

#include <algorithm>
#include <utility>

#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {

EtherConv::EtherConv(EtherProto* proto, int index)
    : ConvCore(proto, index, "ether.conv", "ether"),
      proto_(proto),
      metrics_(proto->obs().metrics()) {}

void EtherConv::ResetLocked() {
  type_.reset();
  promiscuous_ = false;
  metrics_.Reset();
}

Status EtherConv::SendMessage(Bytes frame) {
  if (frame.size() < 6) {
    return Status::Ok();  // no destination address
  }
  auto type = this->type();
  if (!type.has_value()) {
    return Status::Ok();  // not connected to a packet type
  }
  MacAddr dst;
  std::copy_n(frame.begin(), 6, dst.begin());
  Bytes payload(frame.begin() + 6, frame.end());
  metrics_.frames_out.Inc();
  return proto_->Transmit(dst, *type < 0 ? uint16_t{0} : static_cast<uint16_t>(*type),
                          std::move(payload));
}

Status EtherConv::Ctl(const std::string& msg) {
  auto words = Tokenize(msg);
  if (words.empty()) {
    return Error(kErrBadCtl);
  }
  if (words[0] == "connect" && words.size() >= 2) {
    // "Writing the string connect 2048 to the ctl file sets the packet type
    // to 2048...  The special packet type -1 selects all packets."
    auto type = ParseI64(words[1]);
    if (!type || *type < -1 || *type > 0xffff) {
      return Error(kErrBadArg);
    }
    QLockGuard guard(lock_);
    type_ = static_cast<int32_t>(*type);
    return Status::Ok();
  }
  if (words[0] == "promiscuous") {
    {
      QLockGuard guard(lock_);
      promiscuous_ = true;
    }
    proto_->UpdatePromiscuity();
    return Status::Ok();
  }
  if (words[0] == "hangup") {
    CloseUser();
    return Status::Ok();
  }
  return Error(kErrBadCtl);
}

Status EtherConv::WaitReady() {
  QLockGuard guard(lock_);
  if (!type_.has_value()) {
    return Error("no packet type selected");
  }
  return Status::Ok();
}

std::string EtherConv::Local() {
  return StrFormat("%s\n", MacToString(proto_->mac()).c_str());
}

std::string EtherConv::StatusText() {
  QLockGuard guard(lock_);
  return StrFormat("ether/%d %d type %d in %llu out %llu\n", index_, refs.load(),
                   type_.has_value() ? *type_ : -2,
                   static_cast<unsigned long long>(metrics_.frames_in.value()),
                   static_cast<unsigned long long>(metrics_.frames_out.value()));
}

void EtherConv::Close() {
  {
    QLockGuard guard(lock_);
    type_.reset();
    promiscuous_ = false;
    HangupLocked("");
  }
  proto_->UpdatePromiscuity();
}

std::optional<int32_t> EtherConv::type() const {
  QLockGuard guard(lock_);
  return type_;
}

bool EtherConv::promiscuous() const {
  QLockGuard guard(lock_);
  return promiscuous_;
}

void EtherConv::Deliver(Bytes frame) {
  Stream* stream;
  {
    QLockGuard guard(lock_);
    if (ClosedLocked()) {
      return;
    }
    stream = stream_.get();
    // Bounded input queueing: NICs drop when software lags.
    if (stream->head_queue().byte_count() > 512 * 1024) {
      metrics_.drops.Inc();
      return;
    }
    metrics_.frames_in.Inc();
  }
  // Readers see the whole frame: dst, src, type, payload.
  stream->DeliverUp(AllocDataBlock(std::move(frame), /*delim=*/true));
}

EtherProto::EtherProto(EtherSegment* segment, MacAddr mac, std::string name,
                       obs::Context& obs)
    : ConvTable("ether.proto", obs), name_(std::move(name)), segment_(segment), mac_(mac) {
  station_ = segment_->Attach(mac_, [this](const EtherFrame& f) { Input(f); });
}

EtherProto::~EtherProto() {
  Unplug();
}

void EtherProto::Hook(EtherSegment::RecvFn fn) {
  QLockGuard guard(lock_);
  hook_ = std::move(fn);
}

void EtherProto::Unplug() {
  if (unplugged_.exchange(true)) {
    return;
  }
  segment_->Detach(station_);
  Abort("");
}

Result<std::string> EtherProto::InfoText(NetConv* conv, const std::string& file) {
  auto* ec = static_cast<EtherConv*>(conv);
  if (file == "type") {
    // "Subsequent reads of the file type yield the string 2048."
    auto type = ec->type();
    return StrFormat("%d\n", type.has_value() ? *type : -2);
  }
  if (file == "stats") {
    // "The stats file returns ASCII text containing the interface address,
    // packet input/output counts, error statistics, and general information
    // about the state of the interface."
    const MediaStats& s = segment_->stats();
    std::string out;
    out += StrFormat("addr: %s\n", MacToString(mac_).c_str());
    out += StrFormat("in: %llu\n",
                     static_cast<unsigned long long>(s.frames_delivered.value()));
    out += StrFormat("out: %llu\n",
                     static_cast<unsigned long long>(s.frames_sent.value()));
    out += StrFormat("drop: %llu\n",
                     static_cast<unsigned long long>(s.frames_dropped.value()));
    out += StrFormat("oerrs: %llu\n",
                     static_cast<unsigned long long>(s.send_errors.value()));
    out += FormatFaultStats(segment_->fault_stats());
    out += ec->StatusText();
    return out;
  }
  return NetProto::InfoText(conv, file);
}

Status EtherProto::Transmit(MacAddr dst, uint16_t type, Bytes payload) {
  if (unplugged_.load()) {
    return Error("interface unplugged");
  }
  return segment_->Send(EtherFrame{dst, mac_, type, std::move(payload)});
}

void EtherProto::UpdatePromiscuity() {
  bool any = false;
  {
    QLockGuard guard(lock_);
    for (auto& c : slots_) {
      if (c->promiscuous()) {
        any = true;
        break;
      }
    }
  }
  segment_->SetPromiscuous(station_, any);
}

void EtherProto::Input(const EtherFrame& frame) {
  EtherSegment::RecvFn ip;
  {
    QLockGuard guard(lock_);
    if (frame.dst == mac_ || frame.dst == kEtherBroadcast) {
      ip = hook_;
    }
  }
  // IP's input is its protocols' to account for, not the driver's.
  if (ip) {
    ip(frame);
  }
  P9_HOT_ROOT("ether.input");
  // The multiplexing module of §2.4.3, hand coded: "If several connections
  // on an interface are configured for a particular packet type, each
  // receives a copy of the incoming packets."
  std::vector<EtherConv*> matches;
  {
    QLockGuard guard(lock_);
    for (auto& c : slots_) {
      auto type = c->type();
      if (!type.has_value()) {
        continue;
      }
      bool match = *type == -1 || *type == static_cast<int32_t>(frame.type) ||
                   c->promiscuous();
      if (match) {
        matches.push_back(c.get());
      }
    }
  }
  if (matches.empty()) {
    return;
  }
  // "If several connections on an interface are configured for a particular
  // packet type, each receives a copy of the incoming packets."  Serialize
  // once; only the extra recipients pay for a copy.
  Bytes packed = frame.Pack();
  for (size_t i = 0; i + 1 < matches.size(); i++) {
    blockaudit::NoteCopy();
    matches[i]->Deliver(Bytes(packed));
  }
  matches.back()->Deliver(std::move(packed));
}

}  // namespace plan9
