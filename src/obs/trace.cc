#include "src/obs/trace.h"

#include "src/base/strings.h"

namespace plan9 {
namespace obs {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kIl:
      return "il";
    case TraceKind::kTcp:
      return "tcp";
    case TraceKind::kNinep:
      return "9p";
    case TraceKind::kDial:
      return "dial";
    case TraceKind::kFault:
      return "fault";
    case TraceKind::kChaos:
      return "chaos";
    case TraceKind::kSpan:
      return "span";
    case TraceKind::kAll:
      return "all";
  }
  return "?";
}

std::optional<TraceKind> TraceKindFromName(std::string_view name) {
  static constexpr TraceKind kKinds[] = {
      TraceKind::kIl,    TraceKind::kTcp,   TraceKind::kNinep, TraceKind::kDial,
      TraceKind::kFault, TraceKind::kChaos, TraceKind::kSpan,  TraceKind::kAll,
  };
  for (TraceKind k : kKinds) {
    if (name == TraceKindName(k)) {
      return k;
    }
  }
  return std::nullopt;
}

FlightRecorder::FlightRecorder(size_t capacity, Counter* dropped)
    : capacity_(capacity == 0 ? 1 : capacity),
      dropped_(dropped),
      epoch_(std::chrono::steady_clock::now()) {}

void FlightRecorder::Append(TraceKind kind, std::string src, std::string text,
                            uint64_t a, uint64_t b) {
  TraceEvent ev;
  ev.ts = std::chrono::steady_clock::now();
  ev.kind = kind;
  ev.src = std::move(src);
  ev.text = std::move(text);
  ev.a = a;
  ev.b = b;
  QLockGuard guard(lock_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    // The slot being overwritten holds the oldest event, whose sequence
    // number is recorded_ - capacity_; if no reader has rendered that far,
    // the event is lost unseen.
    if (recorded_ - capacity_ >= read_seq_ && dropped_ != nullptr) {
      dropped_->Inc();
    }
    ring_[next_ % capacity_] = std::move(ev);
  }
  next_ = (next_ + 1) % capacity_;
  recorded_++;
}

void FlightRecorder::Enable(uint32_t kinds) {
  mask_.fetch_or(kinds, std::memory_order_relaxed);
}

void FlightRecorder::Disable(uint32_t kinds) {
  mask_.fetch_and(~kinds, std::memory_order_relaxed);
}

std::string FlightRecorder::RenderText(uint32_t kinds) {
  // Snapshot under the lock, format outside it: text rendering is O(ring)
  // string work, and holding obs.trace across it would stall every hot-path
  // writer behind a slow /net/trace reader.
  std::vector<TraceEvent> snapshot;
  {
    QLockGuard guard(lock_);
    size_t n = ring_.size();
    // Oldest-first: when the ring has wrapped, next_ indexes the oldest slot.
    size_t start = n < capacity_ ? 0 : next_;
    snapshot.reserve(n);
    for (size_t i = 0; i < n; i++) {
      snapshot.push_back(ring_[(start + i) % n]);
    }
    read_seq_ = recorded_;
  }
  std::string out;
  for (const TraceEvent& ev : snapshot) {
    if ((static_cast<uint32_t>(ev.kind) & kinds) == 0) {
      continue;
    }
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(ev.ts - epoch_);
    out += StrFormat("%6lld.%06lld %-5s %s %s",
                     (long long)(us.count() / 1000000),
                     (long long)(us.count() % 1000000), TraceKindName(ev.kind),
                     ev.src.c_str(), ev.text.c_str());
    if (ev.a != 0 || ev.b != 0) {
      out += StrFormat(" %llu", (unsigned long long)ev.a);
    }
    if (ev.b != 0) {
      out += StrFormat(" %llu", (unsigned long long)ev.b);
    }
    out += "\n";
  }
  return out;
}

void FlightRecorder::Clear() {
  QLockGuard guard(lock_);
  ring_.clear();
  next_ = 0;
  read_seq_ = recorded_;
}

size_t FlightRecorder::EventCount() {
  QLockGuard guard(lock_);
  return ring_.size();
}

uint64_t FlightRecorder::Overwritten() {
  QLockGuard guard(lock_);
  return recorded_ - ring_.size();
}

}  // namespace obs
}  // namespace plan9
