#include "perfbench/probes.h"

#include <atomic>
#include <thread>
#include <vector>

#include "perfbench/ledger.h"
#include "src/ninep/client.h"
#include "src/ninep/fcall.h"
#include "src/ninep/ramfs.h"
#include "src/ninep/server.h"
#include "src/ninep/transport.h"
#include "src/stream/stream.h"
#include "src/task/timers.h"

namespace p9bench {
namespace {

using plan9::Bytes;
using plan9::Proc;

// Keeps the compiler from discarding a probed call's result.
template <typename T>
void Keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Median over `batches` of the mean time per call, in ns.
template <typename F>
double PerCallNs(int batches, int per_batch, F f) {
  std::vector<double> v;
  for (int b = 0; b < batches; b++) {
    auto t = Clock::now();
    for (int i = 0; i < per_batch; i++) f();
    v.push_back(UsSince(t) * 1000.0 / per_batch);
  }
  return Median(std::move(v));
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// A device that turns every block around, so a Stream's own cost (head
// queue, read lock, delimiters) is all a Write + Read pays.
class LoopDevice : public plan9::StreamModule {
 public:
  std::string_view name() const override { return "loop"; }
  void DownPut(plan9::BlockPtr b) override { PutUp(std::move(b)); }
};

double StreamEchoNs(size_t size) {
  plan9::Stream s(std::make_unique<LoopDevice>());
  Bytes payload(size, 0x5a);
  Bytes buf(2 * size);
  return PerCallNs(21, 2000, [&] {
    (void)s.Write(payload.data(), payload.size());
    auto n = s.Read(buf.data(), buf.size());
    Keep(n);
  });
}

double PipeRpcUs(uint64_t seed) {
  FileSet files(seed, "/n/pipe/bench");
  plan9::RamFs served;
  (void)served.MkdirAll("bench");
  for (int i = 0; i < FileSet::kFiles; i++) {
    (void)served.WriteFile("bench/" + FileSet::Leaf(i), files.Content(i, 0));
  }
  auto [server_end, client_end] = plan9::PipeTransport::Make();
  plan9::NinepServer server(&served, std::move(server_end));
  plan9::RamFs root;
  (void)root.MkdirAll("n/pipe");
  auto proc = std::make_unique<Proc>(std::make_shared<plan9::Namespace>(&root));
  if (!proc->MountClient(std::make_shared<plan9::NinepClient>(std::move(client_end)),
                         "/n/pipe", plan9::kMRepl)
           .ok()) {
    return 0;
  }
  bool correct = true;
  std::vector<double> v;
  for (int i = 0; i < 2000; i++) {
    auto t = Clock::now();
    (void)files.Op(proc.get(), nullptr, &correct);
    v.push_back(UsSince(t));
  }
  return Median(std::move(v));
}

double TimerFireUs() {
  auto& wheel = plan9::TimerWheel::Default();
  std::atomic<int64_t> fired{0};
  std::vector<double> v;
  for (int i = 0; i < 2000; i++) {
    fired.store(0);
    int64_t t0 = NowNs();
    wheel.Schedule(std::chrono::nanoseconds(0), [&fired] { fired.store(NowNs()); });
    while (fired.load() == 0) std::this_thread::yield();
    v.push_back(static_cast<double>(fired.load() - t0) / 1000.0);
  }
  wheel.Drain();
  return Median(std::move(v));
}

double DeliverUs(uint64_t seed) {
  plan9::EtherSegment seg(Uncapped(seed));
  std::atomic<int64_t> got{0};
  plan9::MacAddr a{2, 0, 0, 0, 0, 1};
  plan9::MacAddr b{2, 0, 0, 0, 0, 2};
  auto sa = seg.Attach(a, [](const plan9::EtherFrame&) {});
  auto sb = seg.Attach(b, [&got](const plan9::EtherFrame&) { got.store(NowNs()); });
  plan9::EtherFrame frame;
  frame.dst = b;
  frame.src = a;
  frame.type = 0x0800;
  frame.payload = Bytes(128, 0x33);
  std::vector<double> v;
  for (int i = 0; i < 2000; i++) {
    got.store(0);
    int64_t t0 = NowNs();
    if (!seg.Send(frame).ok()) break;
    while (got.load() == 0) std::this_thread::yield();
    v.push_back(static_cast<double>(got.load() - t0) / 1000.0);
  }
  seg.Detach(sa);
  seg.Detach(sb);
  plan9::TimerWheel::Default().Drain();
  return Median(std::move(v));
}

}  // namespace

MicroProbes RunMicroProbes(uint64_t seed, const plan9::Ndb& db) {
  MicroProbes m;
  auto twrite = plan9::TwriteMsg(7, 0, Bytes(FileSet::kSize, static_cast<uint8_t>(seed)));
  twrite.tag = 1;
  m.pack_ns = PerCallNs(21, 5000, [&] {
    auto packed = twrite.Pack();
    Keep(packed);
  });
  Bytes packed = twrite.Pack().take();
  m.unpack_ns = PerCallNs(21, 5000, [&] {
    auto f = plan9::Fcall::Unpack(packed);
    Keep(f);
  });
  m.pipe_rpc_us = PipeRpcUs(seed);
  // What CS consults to translate net!musca!echo: the host and the port.
  m.ndb_lookup_us = PerCallNs(21, 2000, [&] {
                      auto hosts = db.Search("sys", "musca");
                      auto port = db.ServicePort("il", "echo");
                      Keep(hosts);
                      Keep(port);
                    }) /
                    1000.0;
  m.echo128_ns = StreamEchoNs(128);
  m.echo8k_ns = StreamEchoNs(8192);
  m.timer_fire_us = TimerFireUs();
  m.deliver_us = DeliverUs(seed);
  return m;
}

int FileProbe(BenchWorld* world, uint64_t seed, int ops, Spans* spans, bool* correct) {
  FileSet files(seed, "/n/probe");
  auto proc = world->helix()->NewProcPrivate();
  auto exportfs = ServeFiles(world, files, "probe", proc.get());
  if (exportfs == nullptr) return ops;
  int failed = 0;
  for (int i = 0; i < ops; i++) failed += !files.Op(proc.get(), spans, correct);
  proc.reset();  // the importer hangs up before exportfs stops
  return failed;
}

int DialProbe(BenchWorld* world, int ops, Spans* spans, bool* correct) {
  auto server = SerialServer::Start(world->musca(), "il!*!echo", EchoHandler);
  if (server == nullptr) return ops;
  auto proc = world->helix()->NewProc();
  int failed = 0;
  // IL's 15 s dial stalls come in clusters (README.md); stop early rather
  // than let one run's probe take minutes.
  auto deadline = Clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < ops && Clock::now() < deadline; i++) {
    failed += !DialEchoOp(proc.get(), static_cast<uint64_t>(i), spans, correct);
  }
  return failed;
}

}  // namespace p9bench
