#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/dial/dial.h"

namespace p9bench {
namespace {

using plan9::Proc;

// --- rpc9p_il ---------------------------------------------------------------
// helix imports musca's exportfs tree over IL and does Open + 128-byte Read or
// Write + Close on one of 64 files.  The paper's main path: per-message cost
// in the name space, 9P, the mount driver, exportfs, IL and timer hand-offs;
// every message fits one frame, so IP never fragments.
class Rpc9pIl : public Workload {
 public:
  ~Rpc9pIl() override { Quiesce(); }

  bool Setup(uint64_t seed) override {
    world_ = std::make_unique<BenchWorld>(seed);
    if (!world_->ok()) return false;
    files_ = std::make_unique<FileSet>(seed, "/n/bench");
    proc_ = world_->helix()->NewProcPrivate();
    exportfs_ = ServeFiles(world_.get(), *files_, "bench", proc_.get());
    return exportfs_ != nullptr;
  }

  bool Op(Spans* spans) override { return files_->Op(proc_.get(), spans, &correct_); }

  bool EndPhase(uint64_t ops, uint64_t* verified_bytes) override {
    *verified_bytes = ops * FileSet::kSize;
    return true;
  }

  void Quiesce() override {
    proc_.reset();  // drops the import, hanging up on exportfs
    exportfs_.reset();
  }

 private:
  std::unique_ptr<FileSet> files_;
  std::unique_ptr<plan9::Service> exportfs_;
  std::unique_ptr<Proc> proc_;
};

// --- bulk_il / bulk_tcp -----------------------------------------------------
// 8 KiB writes on one conversation into a benchmark-owned sink.  Payload
// copies, allocations, IP fragmentation (6 fragments per message at MTU
// 1514) and per-frame media cost set the pace; 9P and the name space are
// absent.  IL preserves each write as one message; TCP is a byte stream,
// so its sink reassembles 8 KiB messages itself.
constexpr size_t kMsg = 8192;
constexpr uint64_t kLastBit = 1ull << 63;

// Message `seq`: an 8-byte header (seq, top bit marking the end of a phase)
// and a body cut from a seeded 64 KiB pattern at a seq-dependent offset.
class Pattern {
 public:
  explicit Pattern(uint64_t seed) : bytes_(64 * 1024) {
    uint64_t x = seed;
    for (size_t i = 0; i < bytes_.size(); i += 8) {
      x = Mix(x);
      std::memcpy(&bytes_[i], &x, 8);
    }
  }

  void Fill(uint64_t seq, bool last, uint8_t* msg) const {
    uint64_t header = seq | (last ? kLastBit : 0);
    std::memcpy(msg, &header, 8);
    std::memcpy(msg + 8, Body(seq), kMsg - 8);
  }

  // Parses msg's header; true if msg is exactly message *seq.
  bool Check(const uint8_t* msg, uint64_t* seq, bool* last) const {
    uint64_t header = 0;
    std::memcpy(&header, msg, 8);
    *last = (header & kLastBit) != 0;
    *seq = header & ~kLastBit;
    return std::memcmp(msg + 8, Body(*seq), kMsg - 8) == 0;
  }

 private:
  const uint8_t* Body(uint64_t seq) const {
    return bytes_.data() + Mix(seq) % (bytes_.size() - kMsg);
  }

  std::vector<uint8_t> bytes_;
};

// The sink: verifies every message in order; at a phase-end message it
// answers with {good, bad} counts for the phase and starts counting afresh.
void SinkConn(Proc* p, int dfd, bool delimited, const Pattern& pattern) {
  std::vector<uint8_t> buf(64 * 1024);
  std::vector<uint8_t> msg(kMsg);
  size_t have = 0;
  uint64_t expect = 0;
  uint64_t counts[2] = {0, 0};  // good, bad
  auto take = [&](const uint8_t* m) {
    uint64_t seq = 0;
    bool last = false;
    bool good = pattern.Check(m, &seq, &last) && seq == expect;
    counts[good ? 0 : 1]++;
    expect = seq + 1;
    if (last) {
      (void)p->Write(dfd, counts, sizeof counts);
      counts[0] = counts[1] = 0;
    }
  };
  for (;;) {
    auto n = p->Read(dfd, buf.data(), buf.size());
    if (!n.ok() || *n == 0) return;
    if (delimited) {
      // Every read on IL must be exactly one 8 KiB message.
      if (*n == kMsg) {
        take(buf.data());
      } else {
        counts[1]++;
      }
      continue;
    }
    for (size_t off = 0; off < *n;) {
      size_t k = std::min(kMsg - have, *n - off);
      std::memcpy(msg.data() + have, buf.data() + off, k);
      have += k;
      off += k;
      if (have == kMsg) {
        take(msg.data());
        have = 0;
      }
    }
  }
}

class Bulk : public Workload {
 public:
  explicit Bulk(std::string proto) : proto_(std::move(proto)), buf_(kMsg) {}
  ~Bulk() override { Quiesce(); }

  bool Setup(uint64_t seed) override {
    world_ = std::make_unique<BenchWorld>(seed);
    if (!world_->ok()) return false;
    pattern_ = std::make_unique<Pattern>(seed);
    bool delimited = proto_ != "tcp";
    const Pattern* pattern = pattern_.get();
    server_ = SerialServer::Start(world_->musca(), proto_ + "!*!sink",
                                  [delimited, pattern](Proc* p, int dfd) {
                                    SinkConn(p, dfd, delimited, *pattern);
                                  });
    if (server_ == nullptr) return false;
    proc_ = world_->helix()->NewProc();
    return Connect([this] {
      auto fd = plan9::Dial(proc_.get(), proto_ + "!musca!sink");
      fd_ = fd.ok() ? *fd : -1;
      return fd.ok();
    });
  }

  bool Op(Spans*) override { return Send(false); }

  bool EndPhase(uint64_t ops, uint64_t* verified_bytes) override {
    *verified_bytes = 0;
    if (!Send(true)) return false;
    uint64_t counts[2] = {0, 0};
    auto* dst = reinterpret_cast<uint8_t*>(counts);
    for (size_t got = 0; got < sizeof counts;) {
      auto n = proc_->Read(fd_, dst + got, sizeof counts - got);
      if (!n.ok() || *n == 0) return false;
      got += *n;
    }
    // The sink must have seen every message sent in the phase, plus the
    // phase-end message itself, intact and in order.
    if (counts[1] != 0 || counts[0] != ops + 1) correct_ = false;
    *verified_bytes = counts[0] * kMsg;
    return true;
  }

  void Quiesce() override {
    if (fd_ >= 0) (void)proc_->Close(fd_);
    fd_ = -1;
    server_.reset();
    proc_.reset();
  }

 private:
  bool Send(bool last) {
    pattern_->Fill(seq_++, last, buf_.data());
    auto n = proc_->Write(fd_, buf_.data(), buf_.size());
    return n.ok() && *n == kMsg;
  }

  std::string proto_;
  std::vector<uint8_t> buf_;
  std::unique_ptr<Pattern> pattern_;
  std::unique_ptr<SerialServer> server_;
  std::unique_ptr<Proc> proc_;
  int fd_ = -1;
  uint64_t seq_ = 0;
};

// --- dial_il ----------------------------------------------------------------
// Dial("net!musca!echo") through CS and ndb, IL's handshake, a 1-byte echo,
// hangup.  The only workload that loads dial, csdns, ndb, conversation
// allocation and the hangup lifecycle; the others touch them only in set-up.
class DialIl : public Workload {
 public:
  ~DialIl() override { Quiesce(); }

  bool Setup(uint64_t seed) override {
    world_ = std::make_unique<BenchWorld>(seed);
    if (!world_->ok()) return false;
    server_ = SerialServer::Start(world_->musca(), "il!*!echo", EchoHandler);
    if (server_ == nullptr) return false;
    proc_ = world_->helix()->NewProc();
    return Connect([this] { return DialEchoOp(proc_.get(), n_++, nullptr, &correct_); });
  }

  bool Op(Spans* spans) override {
    return DialEchoOp(proc_.get(), n_++, spans, &correct_);
  }

  bool EndPhase(uint64_t ops, uint64_t* verified_bytes) override {
    *verified_bytes = ops * 2;  // one byte out, the same byte back
    return true;
  }

  void Quiesce() override {
    server_.reset();
    proc_.reset();
  }

 private:
  std::unique_ptr<SerialServer> server_;
  std::unique_ptr<Proc> proc_;
  uint64_t n_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "rpc9p_il") return std::make_unique<Rpc9pIl>();
  if (name == "bulk_il") return std::make_unique<Bulk>("il");
  if (name == "bulk_tcp") return std::make_unique<Bulk>("tcp");
  if (name == "dial_il") return std::make_unique<DialIl>();
  return nullptr;
}

}  // namespace p9bench
