#include "src/dial/dial.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/base/rand.h"
#include "src/base/strings.h"

namespace plan9 {
namespace {

// Closes the held fd on every exit path; Release() hands ownership back to
// the caller on success.  Every early return below leaks nothing.
class FdCloser {
 public:
  FdCloser(Proc* p, int fd) : p_(p), fd_(fd) {}
  ~FdCloser() {
    if (fd_ >= 0) {
      (void)p_->Close(fd_);
    }
  }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  int Release() { return std::exchange(fd_, -1); }
  int get() const { return fd_; }

 private:
  Proc* p_;
  int fd_;
};

// One "filename message" candidate from name translation.
struct Candidate {
  std::string clone_path;  // "/net/il/clone"
  std::string ctl_msg;     // "connect 135.104.9.31!17008"
};

// Translate a dial string into candidates.  Prefers the connection server;
// falls back to literal addresses for cs-less nodes.
Result<std::vector<Candidate>> Translate(Proc* p, const std::string& dest,
                                         bool announce) {
  std::vector<Candidate> out;
  std::string verb = announce ? "announce" : "connect";

  // Try CS: "A client writes a symbolic name to /net/cs then reads one line
  // for each matching destination reachable from this system."
  auto csfd = p->Open("/net/cs", kORdWr);
  if (csfd.ok()) {
    FdCloser cs(p, *csfd);
    std::string query = announce ? "announce " + dest : dest;
    if (p->WriteString(cs.get(), query).ok()) {
      (void)p->Seek(cs.get(), 0, kSeekSet);
      for (;;) {
        auto line = p->ReadString(cs.get());
        if (!line.ok() || line->empty()) {
          break;
        }
        auto fields = Tokenize(*line);
        if (fields.size() >= 2) {
          out.push_back(Candidate{fields[0], verb + " " + fields[1]});
        }
      }
    }
    if (!out.empty()) {
      return out;
    }
  }

  // Fallback: "Dial accepts addresses instead of symbolic names."
  auto parts = GetFields(dest, "!", /*collapse=*/false);
  if (parts.size() < 2) {
    return Error(kErrBadAddr);
  }
  const std::string& net = parts[0];
  if (net == "net") {
    return Error("no connection server to resolve 'net'");
  }
  std::string rest = parts[1];
  for (size_t i = 2; i < parts.size(); i++) {
    rest += "!" + parts[i];
  }
  if (announce) {
    // announce tcp!*!564 -> "announce *!564"; dk services pass through.
    out.push_back(Candidate{"/net/" + net + "/clone", "announce " + rest});
  } else {
    out.push_back(Candidate{"/net/" + net + "/clone", "connect " + rest});
  }
  return out;
}

// Open the clone file, learn the conversation directory, send the ctl msg.
// On success returns the open ctl fd and fills conn_dir.
Result<int> CloneAndCtl(Proc* p, const Candidate& cand, std::string* conn_dir) {
  P9_ASSIGN_OR_RETURN(int raw_cfd, p->Open(cand.clone_path, kORdWr));
  FdCloser cfd(p, raw_cfd);
  auto num = p->ReadString(cfd.get(), 32);
  if (!num.ok()) {
    return num.error();
  }
  Status wrote = p->WriteString(cfd.get(), cand.ctl_msg);
  if (!wrote.ok()) {
    return wrote.error();
  }
  // ".../tcp/clone" -> ".../tcp/<n>"
  std::string proto_dir = cand.clone_path;
  auto slash = proto_dir.rfind('/');
  proto_dir.resize(slash);
  *conn_dir = proto_dir + "/" + std::string(TrimSpace(*num));
  return cfd.Release();
}

// One full pass over the translated candidates: the classic single-attempt
// dial.  On failure every fd opened along the way is closed.
Result<int> DialOnce(Proc* p, const std::string& dest, std::string* dir, int* cfd) {
  obs::Context& ctx = p->obs();
  ctx.stats().dial_attempts.Inc();
  P9_TRACE(ctx.recorder(), obs::TraceKind::kDial, "dial", dest);
  // A dial is a trace root if the node's sampler picks it (and a child if
  // the caller — an exportfs relay, a traced test — already carries a
  // context).
  obs::ScopedSpan call_span("dial.call", ctx, obs::ScopedSpan::kRootAtEntry);
  std::vector<Candidate> candidates;
  {
    obs::ScopedSpan cs_span("dial.cs", ctx);
    P9_ASSIGN_OR_RETURN(candidates, Translate(p, dest, /*announce=*/false));
  }
  Error last{std::string(kErrBadAddr)};
  // "Dial uses CS to translate the symbolic name to all possible destination
  // addresses and attempts to connect to each in turn until one works."
  for (const auto& cand : candidates) {
    // The span live while the ctl write lands is the one devproto stamps
    // onto the conversation (MaybeCaptureTrace).
    obs::ScopedSpan connect_span("dial.connect", ctx);
    std::string conn_dir;
    auto ctl_fd = CloneAndCtl(p, cand, &conn_dir);
    if (!ctl_fd.ok()) {
      last = ctl_fd.error();
      continue;
    }
    FdCloser ctl(p, *ctl_fd);
    auto dfd = p->Open(conn_dir + "/data", kORdWr);
    if (!dfd.ok()) {
      last = dfd.error();
      continue;
    }
    if (dir != nullptr) {
      *dir = conn_dir;
    }
    if (cfd != nullptr) {
      *cfd = ctl.Release();
    }
    ctx.stats().dial_successes.Inc();
    return dfd;
  }
  ctx.stats().dial_failures.Inc();
  P9_TRACE(ctx.recorder(), obs::TraceKind::kDial, "dial",
           StrFormat("%s failed: %s", dest.c_str(), last.message().c_str()));
  return last;
}

}  // namespace

std::string NetMkAddr(const std::string& addr, const std::string& defnet,
                      const std::string& defsvc) {
  auto parts = GetFields(addr, "!", /*collapse=*/false);
  if (parts.size() >= 3 || (parts.size() == 2 && defsvc.empty())) {
    return addr;
  }
  std::string net = defnet.empty() ? "net" : defnet;
  if (parts.size() == 2) {
    return addr + "!" + defsvc;
  }
  if (defsvc.empty()) {
    return net + "!" + addr;
  }
  return net + "!" + addr + "!" + defsvc;
}

Result<int> Dial(Proc* p, const std::string& dest, std::string* dir, int* cfd) {
  return DialOnce(p, dest, dir, cfd);
}

Result<int> Dial(Proc* p, const std::string& dest, const DialOptions& opts,
                 std::string* dir, int* cfd) {
  Rng jitter_rng(opts.jitter_seed);
  auto delay = opts.backoff;
  Result<int> last = Error(std::string(kErrBadAddr));
  for (int attempt = 0; attempt < std::max(1, opts.attempts); attempt++) {
    if (attempt > 0) {
      // Backoff with deterministic jitter so a thundering herd of redialers
      // (and a replayed test) spread out the same way every run.
      auto d = delay.count();
      if (opts.jitter > 0 && d > 0) {
        auto span = static_cast<int64_t>(static_cast<double>(d) * opts.jitter);
        if (span > 0) {
          d += static_cast<int64_t>(jitter_rng.Below(
                   static_cast<uint64_t>(2 * span + 1))) -
               span;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(std::max<int64_t>(d, 0)));
      auto grown = static_cast<int64_t>(static_cast<double>(delay.count()) *
                                        opts.multiplier);
      delay = std::min(std::chrono::milliseconds(grown), opts.max_backoff);
    }
    last = DialOnce(p, dest, dir, cfd);
    if (last.ok()) {
      return last;
    }
  }
  return last;
}

Result<int> Announce(Proc* p, const std::string& addr, std::string* dir) {
  P9_ASSIGN_OR_RETURN(std::vector<Candidate> candidates,
                      Translate(p, addr, /*announce=*/true));
  Error last{std::string(kErrBadAddr)};
  for (const auto& cand : candidates) {
    std::string conn_dir;
    auto ctl = CloneAndCtl(p, cand, &conn_dir);
    if (!ctl.ok()) {
      last = ctl.error();
      continue;
    }
    if (dir != nullptr) {
      *dir = conn_dir;
    }
    return ctl;
  }
  return last;
}

Result<int> Listen(Proc* p, const std::string& dir, std::string* ldir) {
  // "If the process opens the listen file it blocks until an incoming call
  // is received...  Reading the ctl file yields a connection number used to
  // construct the path of the data file."
  P9_ASSIGN_OR_RETURN(int raw_lcfd, p->Open(dir + "/listen", kORdWr));
  FdCloser lcfd(p, raw_lcfd);
  auto num = p->ReadString(lcfd.get(), 32);
  if (!num.ok()) {
    return num.error();
  }
  std::string proto_dir = dir;
  auto slash = proto_dir.rfind('/');
  proto_dir.resize(slash);
  if (ldir != nullptr) {
    *ldir = proto_dir + "/" + std::string(TrimSpace(*num));
  }
  return lcfd.Release();
}

Result<int> Accept(Proc* p, int ctl, const std::string& ldir) {
  // IP networks accept implicitly; Datakit needs the word.
  (void)p->WriteString(ctl, "accept");
  return p->Open(ldir + "/data", kORdWr);
}

Status Reject(Proc* p, int ctl, const std::string& ldir, const std::string& reason) {
  Status s = p->WriteString(ctl, "reject " + reason);
  (void)p->Close(ctl);
  return s;
}

bool DialPathDelimited(const std::string& conn_dir) {
  // "/net/il/3" -> "il".  TCP is the odd one out (and udp is unreliable —
  // no 9P over it at all).
  auto fields = GetFields(conn_dir, "/");
  for (size_t i = 0; i + 1 < fields.size(); i++) {
    if (fields[i] == "net" || i + 2 == fields.size()) {
      const std::string& proto = fields[i + (fields[i] == "net" ? 1 : 0)];
      return proto != "tcp" && proto != "udp";
    }
  }
  return true;
}

}  // namespace plan9
