#include "perfbench/world.h"

#include <cstdio>
#include <cstring>

#include "perfbench/ledger.h"
#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/svc/exportfs.h"
#include "src/world/boot.h"

namespace p9bench {

using plan9::Proc;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

plan9::LinkParams Uncapped(uint64_t seed) {
  plan9::LinkParams p = plan9::LinkParams::Perfect();
  p.mtu = 1514;
  p.seed = seed;
  return p;
}

BenchWorld::BenchWorld(uint64_t seed)
    : ether_(Uncapped(seed)), db_(std::make_shared<plan9::Ndb>()) {
  if (!db_->Load(kNdb).ok()) return;
  helix_ = std::make_unique<plan9::Node>("helix");
  musca_ = std::make_unique<plan9::Node>("musca");
  helix_->AddEther(&ether_, plan9::MacAddr{8, 0, 0x69, 2, 0x22, 1},
                   plan9::Ipv4Addr::FromOctets(135, 104, 9, 31),
                   plan9::Ipv4Addr{0xffffff00});
  musca_->AddEther(&ether_, plan9::MacAddr{8, 0, 0x69, 2, 0x22, 2},
                   plan9::Ipv4Addr::FromOctets(135, 104, 9, 6),
                   plan9::Ipv4Addr{0xffffff00});
  ok_ = plan9::BootNetwork(helix_.get(), db_, kNdb).ok() &&
        plan9::BootNetwork(musca_.get(), db_, kNdb).ok();
}

std::unique_ptr<SerialServer> SerialServer::Start(plan9::Node* node,
                                                  const std::string& addr,
                                                  Handler handler) {
  auto proc = node->NewProc();
  std::string adir;
  auto afd = plan9::Announce(proc.get(), addr, &adir);
  if (!afd.ok()) {
    std::fprintf(stderr, "announce %s: %s\n", addr.c_str(),
                 afd.error().message().c_str());
    return nullptr;
  }
  return std::unique_ptr<SerialServer>(
      new SerialServer(std::move(proc), *afd, std::move(adir), std::move(handler)));
}

SerialServer::SerialServer(std::unique_ptr<Proc> proc, int afd, std::string adir,
                           Handler handler)
    : proc_(std::move(proc)),
      afd_(afd),
      adir_(std::move(adir)),
      handler_(std::move(handler)),
      thread_([this] { Loop(); }) {}

SerialServer::~SerialServer() {
  (void)proc_->Close(afd_);  // wakes a blocked Listen
  thread_.join();
}

void SerialServer::Loop() {
  for (;;) {
    std::string ldir;
    auto lcfd = plan9::Listen(proc_.get(), adir_, &ldir);
    if (!lcfd.ok()) return;  // announcement closed
    auto dfd = plan9::Accept(proc_.get(), *lcfd, ldir);
    if (dfd.ok()) {
      handler_(proc_.get(), *dfd);
      (void)proc_->Close(*dfd);
    }
    (void)proc_->Close(*lcfd);
  }
}

void EchoHandler(Proc* proc, int dfd) {
  char buf[256];
  for (;;) {
    auto n = proc->Read(dfd, buf, sizeof buf);
    if (!n.ok() || *n == 0) return;
    if (!proc->Write(dfd, buf, *n).ok()) return;
  }
}

std::string FileSet::Leaf(int file) {
  char leaf[8];
  std::snprintf(leaf, sizeof leaf, "f%02d", file);
  return leaf;
}

std::string FileSet::Content(int file, uint64_t version) const {
  std::string s(kSize, '\0');
  uint64_t x = Mix(seed_ ^ (static_cast<uint64_t>(file) << 40) ^ version);
  for (size_t i = 0; i < kSize; i += 8) {
    x = Mix(x);
    std::memcpy(&s[i], &x, 8);
  }
  return s;
}

bool FileSet::Op(Proc* proc, Spans* spans, bool* correct) {
  uint64_t n = ops_++;
  bool write = n % 2 == 0;
  int f = static_cast<int>(Mix(seed_ + n) % kFiles);
  auto t = Clock::now();
  auto fd = proc->Open(dir_ + "/" + Leaf(f), write ? plan9::kOWrite : plan9::kORead);
  if (spans != nullptr) spans->open.push_back(UsSince(t));
  if (!fd.ok()) return false;

  bool ok = true;
  if (write) {
    std::string next = Content(f, versions_[f] + 1);
    t = Clock::now();
    auto w = proc->Write(*fd, next.data(), next.size());
    if (spans != nullptr) spans->write.push_back(UsSince(t));
    ok = w.ok() && *w == next.size();
    // A failed write leaves the file's contents unknown until the next one.
    unknown_[f] = !ok;
    if (ok) versions_[f]++;
  } else {
    char buf[2 * kSize];
    t = Clock::now();
    auto r = proc->Read(*fd, buf, sizeof buf);
    if (spans != nullptr) spans->read.push_back(UsSince(t));
    ok = r.ok();
    if (ok && !unknown_[f] &&
        std::string_view(buf, *r) != Content(f, versions_[f])) {
      *correct = false;
    }
  }
  t = Clock::now();
  bool closed = proc->Close(*fd).ok();
  if (spans != nullptr) spans->close.push_back(UsSince(t));
  return ok && closed;
}

bool Connect(const std::function<bool()>& attempt) {
  for (int i = 0; i < 3; i++) {
    if (attempt()) return true;
  }
  return false;
}

std::unique_ptr<plan9::Service> ServeFiles(BenchWorld* world, const FileSet& files,
                                           const std::string& tree, Proc* importer) {
  auto* fs = world->musca()->rootfs();
  if (!fs->MkdirAll("lib/" + tree).ok()) return nullptr;
  for (int i = 0; i < FileSet::kFiles; i++) {
    if (!fs->WriteFile("lib/" + tree + "/" + FileSet::Leaf(i), files.Content(i, 0)).ok()) {
      return nullptr;
    }
  }
  auto exportfs = plan9::StartExportfs(
      std::shared_ptr<Proc>(world->musca()->NewProc().release()), "il!*!exportfs");
  if (!exportfs.ok()) return nullptr;
  bool imported = Connect([&] {
    return plan9::Import(importer, "net!musca!exportfs", "/lib/" + tree, "/n/" + tree,
                         plan9::kMRepl)
        .ok();
  });
  return imported ? std::move(*exportfs) : nullptr;
}

namespace {

constexpr char kEchoDest[] = "net!musca!echo";

// §5's dance, one timed step at a time, exactly as Dial performs it.
plan9::Result<int> HandDial(Proc* p, Spans* spans) {
  auto t = Clock::now();
  std::vector<std::string> first;
  auto csfd = p->Open("/net/cs", plan9::kORdWr);
  if (!csfd.ok()) return csfd.error();
  if (p->WriteString(*csfd, kEchoDest).ok()) {
    (void)p->Seek(*csfd, 0, plan9::kSeekSet);
    for (;;) {
      auto line = p->ReadString(*csfd);
      if (!line.ok() || line->empty()) break;
      if (first.empty()) first = plan9::Tokenize(*line);
    }
  }
  (void)p->Close(*csfd);
  spans->cs_query.push_back(UsSince(t));
  if (first.size() < 2) return plan9::Error("cs: no translation");

  t = Clock::now();
  auto cfd = p->Open(first[0], plan9::kORdWr);
  if (!cfd.ok()) return cfd.error();
  auto num = p->ReadString(*cfd, 32);
  spans->clone_open.push_back(UsSince(t));
  if (!num.ok()) {
    (void)p->Close(*cfd);
    return num.error();
  }

  t = Clock::now();
  auto connected = p->WriteString(*cfd, "connect " + first[1]);
  spans->connect.push_back(UsSince(t));
  if (!connected.ok()) {
    (void)p->Close(*cfd);
    return connected.error();
  }

  // Dial closes the ctl fd before returning; that close belongs to this step.
  t = Clock::now();
  std::string dir = first[0].substr(0, first[0].rfind('/'));
  auto dfd = p->Open(dir + "/" + std::string(plan9::TrimSpace(*num)) + "/data",
                     plan9::kORdWr);
  (void)p->Close(*cfd);
  spans->data_open.push_back(UsSince(t));
  return dfd;
}

}  // namespace

bool DialEchoOp(Proc* proc, uint64_t n, Spans* spans, bool* correct) {
  plan9::Result<int> fd = plan9::Error("unset");
  if (spans != nullptr && n % 2 == 1) {
    fd = HandDial(proc, spans);
  } else {
    auto t = Clock::now();
    fd = plan9::Dial(proc, kEchoDest);
    if (spans != nullptr) spans->dial.push_back(UsSince(t));
  }
  if (!fd.ok()) return false;
  auto byte = static_cast<uint8_t>(Mix(n));
  uint8_t back = 0;
  bool ok = proc->Write(*fd, &byte, 1).ok();
  auto r = ok ? proc->Read(*fd, &back, 1) : plan9::Result<size_t>(plan9::Error("write"));
  ok = r.ok() && *r == 1;
  if (ok && back != byte) *correct = false;
  return proc->Close(*fd).ok() && ok;
}

}  // namespace p9bench
