#include "src/sim/chaos.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "src/base/rand.h"
#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/obs/context.h"
#include "src/obs/stitch.h"
#include "src/task/kproc.h"
#include "src/task/timers.h"

namespace plan9 {
namespace {

std::atomic<ChaosEngine*> g_current{nullptr};

const char* KindName(ChaosEvent::Kind k) {
  switch (k) {
    case ChaosEvent::Kind::kCrash:
      return "crash";
    case ChaosEvent::Kind::kRestart:
      return "restart";
    case ChaosEvent::Kind::kPartition:
      return "partition";
    case ChaosEvent::Kind::kHeal:
      return "heal";
    case ChaosEvent::Kind::kFlap:
      return "flap";
  }
  return "?";
}

std::optional<ChaosEvent::Kind> KindFromName(std::string_view name) {
  for (ChaosEvent::Kind k :
       {ChaosEvent::Kind::kCrash, ChaosEvent::Kind::kRestart,
        ChaosEvent::Kind::kPartition, ChaosEvent::Kind::kHeal,
        ChaosEvent::Kind::kFlap}) {
    if (name == KindName(k)) {
      return k;
    }
  }
  return std::nullopt;
}

bool IsNodeKind(ChaosEvent::Kind k) {
  return k == ChaosEvent::Kind::kCrash || k == ChaosEvent::Kind::kRestart;
}

// Durations parse as "500ms", "2s" or a bare millisecond count; the
// canonical rendering is always the millisecond form.
std::optional<std::chrono::milliseconds> ParseDuration(std::string_view s) {
  size_t digits = 0;
  while (digits < s.size() && s[digits] >= '0' && s[digits] <= '9') {
    digits++;
  }
  if (digits == 0) {
    return std::nullopt;
  }
  auto n = ParseU64(s.substr(0, digits));
  if (!n.has_value()) {
    return std::nullopt;
  }
  std::string_view unit = s.substr(digits);
  if (unit.empty() || unit == "ms") {
    return std::chrono::milliseconds(*n);
  }
  if (unit == "s") {
    return std::chrono::milliseconds(*n * 1000);
  }
  return std::nullopt;
}

}  // namespace

std::string RenderChaosEvent(const ChaosEvent& ev) {
  std::string line =
      StrFormat("%s t=%llums %s=%s", KindName(ev.kind),
                static_cast<unsigned long long>(ev.at.count()),
                IsNodeKind(ev.kind) ? "node" : "medium", ev.target.c_str());
  if (ev.kind == ChaosEvent::Kind::kFlap) {
    line += StrFormat(" down=%llums",
                      static_cast<unsigned long long>(ev.down.count()));
  }
  return line;
}

ChaosEngine::ChaosEngine() {
  ChaosEngine* expected = nullptr;
  (void)g_current.compare_exchange_strong(expected, this);
  // Chaos runs are forensic by nature: always record lifecycle events (the
  // engine and node lifecycles belong to no one node: the root's ring).
  obs::Context::Root().recorder().Enable(static_cast<uint32_t>(obs::TraceKind::kChaos));
}

ChaosEngine::~ChaosEngine() {
  ChaosEngine* expected = this;
  (void)g_current.compare_exchange_strong(expected, nullptr);
}

ChaosEngine* ChaosEngine::Current() {
  return g_current.load(std::memory_order_acquire);
}

void ChaosEngine::AddNode(Node* node) {
  QLockGuard guard(lock_);
  nodes_.push_back(node);
}

void ChaosEngine::AddMedium(const std::string& name, EtherSegment* segment) {
  QLockGuard guard(lock_);
  media_.push_back(Medium{name, segment, nullptr});
}

void ChaosEngine::AddMedium(const std::string& name, Wire* wire) {
  QLockGuard guard(lock_);
  media_.push_back(Medium{name, nullptr, wire});
}

Node* ChaosEngine::FindNodeLocked(const std::string& sysname) const {
  for (Node* n : nodes_) {
    if (n->sysname() == sysname) {
      return n;
    }
  }
  return nullptr;
}

ChaosEngine::Medium* ChaosEngine::FindMediumLocked(const std::string& name) {
  for (auto& m : media_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

Status ChaosEngine::Script(const std::string& text) {
  std::vector<ChaosEvent> events;
  for (const std::string& stmt : GetFields(text, "\n;")) {
    std::string_view line = TrimSpace(stmt);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    auto words = Tokenize(line);
    if (words.empty()) {
      continue;
    }
    auto kind = KindFromName(words[0]);
    if (!kind.has_value()) {
      return Error(StrFormat("chaos: unknown event '%s'", words[0].c_str()));
    }
    ChaosEvent ev;
    ev.kind = *kind;
    bool have_t = false;
    for (size_t i = 1; i < words.size(); i++) {
      auto eq = words[i].find('=');
      if (eq == std::string::npos) {
        return Error(StrFormat("chaos: expected key=value, got '%s'",
                               words[i].c_str()));
      }
      std::string key = words[i].substr(0, eq);
      std::string val = words[i].substr(eq + 1);
      if (key == "t") {
        auto d = ParseDuration(val);
        if (!d.has_value()) {
          return Error(StrFormat("chaos: bad duration '%s'", val.c_str()));
        }
        ev.at = *d;
        have_t = true;
      } else if (key == "down") {
        auto d = ParseDuration(val);
        if (!d.has_value()) {
          return Error(StrFormat("chaos: bad duration '%s'", val.c_str()));
        }
        ev.down = *d;
      } else if (key == "node" || key == "medium") {
        if ((key == "node") != IsNodeKind(ev.kind)) {
          return Error(StrFormat("chaos: %s takes %s=, not %s=",
                                 KindName(ev.kind),
                                 IsNodeKind(ev.kind) ? "node" : "medium",
                                 key.c_str()));
        }
        ev.target = val;
      } else {
        return Error(StrFormat("chaos: unknown key '%s'", key.c_str()));
      }
    }
    if (!have_t || ev.target.empty()) {
      return Error(StrFormat("chaos: %s needs t= and %s=", KindName(ev.kind),
                             IsNodeKind(ev.kind) ? "node" : "medium"));
    }
    events.push_back(std::move(ev));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  QLockGuard guard(lock_);
  schedule_ = std::move(events);
  seed_ = 0;
  executed_ = 0;
  return Status::Ok();
}

void ChaosEngine::Seed(uint64_t seed, int events,
                       std::chrono::milliseconds min_gap,
                       std::chrono::milliseconds max_gap) {
  QLockGuard guard(lock_);
  // Deterministic over the *set* of registered names: sort them so the
  // schedule is a pure function of (seed, names), whatever the
  // registration order.
  std::vector<std::string> node_names;
  for (Node* n : nodes_) {
    node_names.push_back(n->sysname());
  }
  std::sort(node_names.begin(), node_names.end());
  std::vector<std::string> medium_names;
  for (auto& m : media_) {
    medium_names.push_back(m.name);
  }
  std::sort(medium_names.begin(), medium_names.end());

  Rng rng(seed);
  if (max_gap < min_gap) {
    max_gap = min_gap;
  }
  auto gap = [&]() {
    return min_gap + std::chrono::milliseconds(rng.Below(
                         static_cast<uint64_t>((max_gap - min_gap).count()) + 1));
  };

  std::set<std::string> crashed;
  std::set<std::string> parted;
  std::vector<ChaosEvent> out;
  std::chrono::milliseconds t{0};
  for (int i = 0; i < events; i++) {
    // Enumerate the sensible moves in deterministic order, pick one.
    std::vector<ChaosEvent> moves;
    for (const auto& name : node_names) {
      ChaosEvent ev;
      ev.kind = crashed.count(name) ? ChaosEvent::Kind::kRestart
                                    : ChaosEvent::Kind::kCrash;
      ev.target = name;
      moves.push_back(ev);
    }
    for (const auto& name : medium_names) {
      ChaosEvent ev;
      ev.target = name;
      if (parted.count(name)) {
        ev.kind = ChaosEvent::Kind::kHeal;
        moves.push_back(ev);
      } else {
        ev.kind = ChaosEvent::Kind::kPartition;
        moves.push_back(ev);
        ev.kind = ChaosEvent::Kind::kFlap;
        ev.down = std::chrono::milliseconds(1 + rng.Below(
                      static_cast<uint64_t>(min_gap.count()) + 1));
        moves.push_back(ev);
      }
    }
    if (moves.empty()) {
      break;
    }
    t += gap();
    ChaosEvent ev = moves[rng.Below(moves.size())];
    ev.at = t;
    if (ev.kind == ChaosEvent::Kind::kCrash) {
      crashed.insert(ev.target);
    } else if (ev.kind == ChaosEvent::Kind::kRestart) {
      crashed.erase(ev.target);
    } else if (ev.kind == ChaosEvent::Kind::kPartition) {
      parted.insert(ev.target);
    } else if (ev.kind == ChaosEvent::Kind::kHeal) {
      parted.erase(ev.target);
    }
    out.push_back(std::move(ev));
  }
  // End balanced: heal every partition, restart every crashed node, so the
  // invariant checker meets a world that can recover.
  for (const auto& name : parted) {
    t += gap();
    ChaosEvent ev;
    ev.at = t;
    ev.kind = ChaosEvent::Kind::kHeal;
    ev.target = name;
    out.push_back(std::move(ev));
  }
  for (const auto& name : crashed) {
    t += gap();
    ChaosEvent ev;
    ev.at = t;
    ev.kind = ChaosEvent::Kind::kRestart;
    ev.target = name;
    out.push_back(std::move(ev));
  }
  schedule_ = std::move(out);
  seed_ = seed;
  executed_ = 0;
}

void ChaosEngine::ClearSchedule() {
  QLockGuard guard(lock_);
  schedule_.clear();
  seed_ = 0;
  executed_ = 0;
}

uint64_t ChaosEngine::seed() const {
  QLockGuard guard(lock_);
  return seed_;
}

size_t ChaosEngine::EventCount() const {
  QLockGuard guard(lock_);
  return schedule_.size();
}

std::string ChaosEngine::ScheduleText() const {
  QLockGuard guard(lock_);
  std::string out;
  for (const auto& ev : schedule_) {
    out += RenderChaosEvent(ev);
    out += "\n";
  }
  return out;
}

Status ChaosEngine::Run() {
  std::vector<ChaosEvent> sched;
  {
    QLockGuard guard(lock_);
    sched = schedule_;
    executed_ = 0;
  }
  auto start = TimerWheel::Clock::now();
  for (const auto& ev : sched) {
    std::this_thread::sleep_until(start + ev.at);
    Status s = Fire(ev);
    if (!s.ok()) {
      return Error(StrFormat("chaos: '%s': %s", RenderChaosEvent(ev).c_str(),
                             s.error().message().c_str()));
    }
    QLockGuard guard(lock_);
    executed_++;
  }
  return Status::Ok();
}

Status ChaosEngine::SetMediumDown(const std::string& name, bool down) {
  EtherSegment* segment = nullptr;
  Wire* wire = nullptr;
  {
    QLockGuard guard(lock_);
    Medium* m = FindMediumLocked(name);
    if (m == nullptr) {
      return Error(StrFormat("chaos: no medium '%s'", name.c_str()));
    }
    segment = m->segment;
    wire = m->wire;
    auto it = std::find(down_media_.begin(), down_media_.end(), name);
    if (down && it == down_media_.end()) {
      down_media_.push_back(name);
    } else if (!down && it != down_media_.end()) {
      down_media_.erase(it);
    }
  }
  if (segment != nullptr) {
    segment->SetPartitioned(down);
  }
  if (wire != nullptr) {
    wire->SetPartitioned(down);
  }
  return Status::Ok();
}

Status ChaosEngine::Fire(const ChaosEvent& ev) {
  obs::Context& root = obs::Context::Root();
  root.metrics().CounterNamed("chaos.sched.events").Inc();
  P9_TRACE(root.recorder(), obs::TraceKind::kChaos, "chaos", RenderChaosEvent(ev));
  switch (ev.kind) {
    case ChaosEvent::Kind::kCrash:
    case ChaosEvent::Kind::kRestart: {
      Node* node;
      {
        QLockGuard guard(lock_);
        node = FindNodeLocked(ev.target);
      }
      if (node == nullptr) {
        return Error(StrFormat("chaos: no node '%s'", ev.target.c_str()));
      }
      if (ev.kind == ChaosEvent::Kind::kCrash) {
        node->Crash();
        return Status::Ok();
      }
      return node->Restart();
    }
    case ChaosEvent::Kind::kPartition:
      root.metrics().CounterNamed("chaos.sched.partitions").Inc();
      return SetMediumDown(ev.target, true);
    case ChaosEvent::Kind::kHeal:
      root.metrics().CounterNamed("chaos.sched.heals").Inc();
      return SetMediumDown(ev.target, false);
    case ChaosEvent::Kind::kFlap: {
      root.metrics().CounterNamed("chaos.sched.flaps").Inc();
      P9_RETURN_IF_ERROR(SetMediumDown(ev.target, true));
      std::this_thread::sleep_for(ev.down);
      return SetMediumDown(ev.target, false);
    }
  }
  return Error("chaos: bad event");
}

Status ChaosEngine::Ctl(const std::string& msg) {
  std::string_view trimmed = TrimSpace(msg);
  if (HasPrefix(trimmed, "script")) {
    return Script(std::string(trimmed.substr(6)));
  }
  auto words = Tokenize(trimmed);
  if (words.empty()) {
    return Error("chaos: empty ctl message");
  }
  if (words[0] == "run") {
    return Run();
  }
  if (words[0] == "clear") {
    ClearSchedule();
    return Status::Ok();
  }
  if (words[0] == "seed") {
    if (words.size() < 2) {
      return Error("usage: seed <n> [events [min-gap [max-gap]]]");
    }
    auto seed = ParseU64(words[1]);
    if (!seed.has_value()) {
      return Error(StrFormat("chaos: bad seed '%s'", words[1].c_str()));
    }
    uint64_t events = 8;
    auto min_gap = std::chrono::milliseconds(100);
    auto max_gap = std::chrono::milliseconds(400);
    if (words.size() > 2) {
      auto n = ParseU64(words[2]);
      if (!n.has_value()) {
        return Error(StrFormat("chaos: bad event count '%s'", words[2].c_str()));
      }
      events = *n;
    }
    if (words.size() > 3) {
      auto d = ParseDuration(words[3]);
      if (!d.has_value()) {
        return Error(StrFormat("chaos: bad duration '%s'", words[3].c_str()));
      }
      min_gap = *d;
    }
    if (words.size() > 4) {
      auto d = ParseDuration(words[4]);
      if (!d.has_value()) {
        return Error(StrFormat("chaos: bad duration '%s'", words[4].c_str()));
      }
      max_gap = *d;
    }
    Seed(*seed, static_cast<int>(events), min_gap, max_gap);
    return Status::Ok();
  }
  // Immediate events: "crash gnot", "flap ether0 200ms".
  auto kind = KindFromName(words[0]);
  if (!kind.has_value()) {
    return Error(StrFormat("chaos: unknown ctl message '%s'", words[0].c_str()));
  }
  if (words.size() < 2) {
    return Error(StrFormat("usage: %s <%s>", words[0].c_str(),
                           IsNodeKind(*kind) ? "node" : "medium"));
  }
  ChaosEvent ev;
  ev.kind = *kind;
  ev.target = words[1];
  if (*kind == ChaosEvent::Kind::kFlap) {
    if (words.size() < 3) {
      return Error("usage: flap <medium> <down>");
    }
    auto d = ParseDuration(words[2]);
    if (!d.has_value()) {
      return Error(StrFormat("chaos: bad duration '%s'", words[2].c_str()));
    }
    ev.down = *d;
  }
  return Fire(ev);
}

std::string ChaosEngine::StatusText() const {
  QLockGuard guard(lock_);
  std::string out = StrFormat(
      "# chaos seed=%llu events=%zu executed=%zu\n",
      static_cast<unsigned long long>(seed_), schedule_.size(), executed_);
  for (Node* n : nodes_) {
    out += StrFormat("# node %s %s gen=%d\n", n->sysname().c_str(),
                     n->alive() ? "alive" : "dead", n->generation());
  }
  for (const auto& m : media_) {
    bool down = std::find(down_media_.begin(), down_media_.end(), m.name) !=
                down_media_.end();
    out += StrFormat("# medium %s %s\n", m.name.c_str(), down ? "down" : "up");
  }
  for (const auto& ev : schedule_) {
    out += RenderChaosEvent(ev);
    out += "\n";
  }
  return out;
}

// --------------------------------------------------------------------------
// InvariantChecker
// --------------------------------------------------------------------------

InvariantChecker::InvariantChecker() : baseline_kprocs_(Kproc::LiveCount()) {}

void InvariantChecker::WatchNode(Node* node) { nodes_.push_back(node); }

void InvariantChecker::ExpectService(Node* via, const std::string& addr) {
  services_.push_back(ServiceProbe{via, addr});
}

void InvariantChecker::ExpectMount(Proc* proc, const std::string& path) {
  mounts_.push_back(MountProbe{proc, path});
}

namespace {

// A conversation parked in one of these states after recovery is stuck: it
// is mid-handshake or mid-close with a peer that will never answer.
// Established, Listen, Closed, Time_wait are all legitimate at rest.
bool StuckState(const std::string& state) {
  static const char* kStuck[] = {"Syncer",   "Syncee",   "Closing",
                                 "Syn_sent", "Syn_rcvd", "Finwait1",
                                 "Finwait2", "Last_ack"};
  for (const char* s : kStuck) {
    if (state == s) {
      return true;
    }
  }
  return false;
}

// Scan one protocol device's conversations via their status lines (the
// file-system idiom: state is the third field of `cat status`).
Status ScanProto(NetProto* proto, const std::string& sysname) {
  if (proto == nullptr) {
    return Status::Ok();
  }
  for (size_t i = 0; i < proto->ConvCount(); i++) {
    NetConv* conv = proto->Conv(i);
    if (conv == nullptr) {
      continue;
    }
    std::string status = conv->StatusText();
    auto words = Tokenize(status);
    if (words.size() >= 3 && StuckState(words[2])) {
      std::string line(TrimSpace(status));
      return Error(StrFormat("stuck conversation on %s: %s", sysname.c_str(),
                             line.c_str()));
    }
  }
  return Status::Ok();
}

// A stuck-conversation failure names the trace that dialed the conversation
// (the status line's "trace <32 hex>" note).  Dump that trace's span tree,
// stitched from every watched node's ring, to stderr so the failure arrives
// with its causal history attached — which hop stalled, and how long each
// one took.
void DumpStuckTrace(const std::vector<Node*>& nodes, const std::string& error_message) {
  auto pos = error_message.find(" trace ");
  if (pos == std::string::npos) {
    return;
  }
  std::string id = error_message.substr(pos + 7, 32);
  if (id.size() != 32) {
    return;
  }
  std::string text;
  for (Node* n : nodes) {
    if (obs::Context* ctx = n->obs(); ctx != nullptr) {
      text += ctx->recorder().RenderText(static_cast<uint32_t>(obs::TraceKind::kSpan));
    }
  }
  auto spans = obs::ParseSpans(text);
  for (const auto& tree : obs::StitchSpans(spans)) {
    if (tree.trace != id) {
      continue;
    }
    std::fprintf(stderr, "stuck conversation trace %s:\n%s", id.c_str(),
                 obs::RenderSpanTree(tree).c_str());
    return;
  }
  std::fprintf(stderr, "stuck conversation trace %s: no spans recorded\n",
               id.c_str());
}

}  // namespace

Status InvariantChecker::QuiescedOnce() {
  for (Node* n : nodes_) {
    if (!n->alive()) {
      continue;  // a dead node's kernel is in the graveyard, all convs closed
    }
    P9_RETURN_IF_ERROR(ScanProto(n->il(), n->sysname()));
    P9_RETURN_IF_ERROR(ScanProto(n->tcp(), n->sysname()));
    P9_RETURN_IF_ERROR(ScanProto(n->dk(), n->sysname()));
  }
  int live = Kproc::LiveCount();
  if (live > baseline_kprocs_) {
    return Error(StrFormat("kproc leak: %d live, baseline %d", live,
                           baseline_kprocs_));
  }
  return Status::Ok();
}

Status InvariantChecker::Check(std::chrono::milliseconds deadline) {
  auto until = TimerWheel::Clock::now() + deadline;
  // Quiescence first: stuck convs and leaked kprocs need time to drain
  // (deadman timers, joining service kprocs), so poll.
  for (;;) {
    Status s = QuiescedOnce();
    if (s.ok()) {
      break;
    }
    if (TimerWheel::Clock::now() >= until) {
      DumpStuckTrace(nodes_, s.error().message());
      return s;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  // Every expected service answers a dial through its node's own /net.
  for (const auto& probe : services_) {
    if (!probe.via->alive()) {
      return Error(StrFormat("service %s: node %s is down", probe.addr.c_str(),
                             probe.via->sysname().c_str()));
    }
    auto proc = probe.via->NewProc();
    if (proc == nullptr) {
      return Error(StrFormat("service %s: node %s has no kernel",
                             probe.addr.c_str(), probe.via->sysname().c_str()));
    }
    DialOptions opts;
    opts.attempts = 8;
    opts.backoff = std::chrono::milliseconds(50);
    opts.max_backoff = std::chrono::milliseconds(400);
    auto fd = Dial(proc.get(), probe.addr, opts);
    if (!fd.ok()) {
      return Error(StrFormat("service %s unreachable after recovery: %s",
                             probe.addr.c_str(),
                             fd.error().message().c_str()));
    }
    (void)proc->Close(*fd);
  }
  // Every expected mount *returns* — success or a clean error; only a hang
  // violates (and surfaces as this call never returning).
  for (const auto& probe : mounts_) {
    (void)probe.proc->Stat(probe.path);
  }
  return Status::Ok();
}

}  // namespace plan9
