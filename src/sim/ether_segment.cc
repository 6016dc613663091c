#include "src/sim/ether_segment.h"

#include <algorithm>

#include "src/base/strings.h"

namespace plan9 {

std::string MacToString(const MacAddr& mac) {
  std::string out;
  for (uint8_t b : mac) {
    out += StrFormat("%02x", b);
  }
  return out;
}

Bytes EtherFrame::Pack() const {
  Bytes out;
  out.reserve(kEtherHeaderSize + payload.size());
  out.insert(out.end(), dst.begin(), dst.end());
  out.insert(out.end(), src.begin(), src.end());
  out.push_back(static_cast<uint8_t>(type >> 8));  // Ethernet types are big-endian
  out.push_back(static_cast<uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<EtherFrame> EtherFrame::Unpack(const Bytes& raw) {
  if (raw.size() < kEtherHeaderSize) {
    return Error("short ether frame");
  }
  EtherFrame f;
  std::copy_n(raw.begin(), 6, f.dst.begin());
  std::copy_n(raw.begin() + 6, 6, f.src.begin());
  f.type = static_cast<uint16_t>(raw[12] << 8 | raw[13]);
  f.payload.assign(raw.begin() + kEtherHeaderSize, raw.end());
  return f;
}

EtherSegment::EtherSegment(LinkParams params) : shared_(std::make_shared<Shared>()) {
  QLockGuard guard(shared_->lock);
  shared_->medium.Configure(params, params.seed, TimerWheel::Clock::now());
}

EtherSegment::~EtherSegment() {
  QLockGuard guard(shared_->lock);
  shared_->down = true;
  shared_->stations.clear();
}

EtherSegment::StationId EtherSegment::Attach(MacAddr mac, RecvFn fn) {
  QLockGuard guard(shared_->lock);
  StationId id = shared_->next_id++;
  shared_->stations.push_back(Station{id, mac, std::move(fn), false});
  return id;
}

void EtherSegment::Detach(StationId id) {
  QLockGuard guard(shared_->lock);
  auto& v = shared_->stations;
  v.erase(std::remove_if(v.begin(), v.end(), [&](const Station& s) { return s.id == id; }),
          v.end());
}

void EtherSegment::SetPromiscuous(StationId id, bool on) {
  QLockGuard guard(shared_->lock);
  for (auto& s : shared_->stations) {
    if (s.id == id) {
      s.promiscuous = on;
    }
  }
}

Status EtherSegment::Send(EtherFrame frame) {
  auto shared = shared_;
  MediumCore::Delivery d;
  {
    QLockGuard guard(shared->lock);
    if (shared->down) {
      return Error(kErrShutdown);
    }
    // Corruption damages the payload, not the header: a corrupted
    // destination would just look like loss, which the burst model already
    // covers.
    P9_ASSIGN_OR_RETURN(d, shared->medium.Transmit(kEtherHeaderSize + frame.payload.size(),
                                                   &frame.payload));
  }
  if (d.dropped) {
    return Status::Ok();
  }
  MediumCore::Schedule(d, [shared, frame = std::move(frame)]() {
    std::vector<RecvFn> receivers;
    {
      QLockGuard guard(shared->lock);
      if (shared->down) {
        return;
      }
      for (auto& s : shared->stations) {
        bool match = s.mac == frame.dst || frame.dst == kEtherBroadcast || s.promiscuous;
        // A station never hears its own transmission back.
        if (match && s.mac != frame.src && s.recv) {
          receivers.push_back(s.recv);
        }
      }
      if (!receivers.empty()) {
        shared->medium.stats.frames_delivered.Inc();
        shared->medium.stats.bytes_delivered.Inc(kEtherHeaderSize + frame.payload.size());
      }
    }
    for (auto& recv : receivers) {
      recv(frame);
    }
  });
  return Status::Ok();
}

const MediaStats& EtherSegment::stats() {
  QLockGuard guard(shared_->lock);
  return shared_->medium.stats;
}

const FaultStats& EtherSegment::fault_stats() {
  QLockGuard guard(shared_->lock);
  return shared_->medium.faults.stats();
}

void EtherSegment::SetPartitioned(bool down) {
  QLockGuard guard(shared_->lock);
  shared_->medium.faults.SetDown(down);
}

}  // namespace plan9
