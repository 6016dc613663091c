// §2.1: 9P and the mount driver.
//
// "Nearly all traffic between Plan 9 systems consists of 9P messages", so
// the cost of packing, unpacking and round-tripping them bounds everything
// else.  Benchmarks: marshal/unmarshal per message type, full RPC round
// trips through the client/server engines over an in-process transport, and
// 8K reads through the mount driver (the kernel's remote-file fast path).
// The *Shared benchmarks send from four callers at once over one
// connection, as processes sharing a mount do, with requests that never
// block and with requests that park: the server passes its reader role to
// another worker only when a request is about to park.
#include <benchmark/benchmark.h>

#include "bench/bench_obs.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "src/ninep/client.h"
#include "src/ninep/fcall.h"
#include "src/ninep/ramfs.h"
#include "src/ninep/server.h"
#include "src/ninep/transport.h"
#include "src/ns/mnt.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"

namespace plan9 {
namespace {

void BM_PackTwrite8K(benchmark::State& state) {
  auto msg = TwriteMsg(7, 4096, Bytes(8192, 0x55));
  msg.tag = 3;
  for (auto _ : state) {
    auto packed = msg.Pack();
    benchmark::DoNotOptimize(packed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_PackTwrite8K);

void BM_UnpackRread8K(benchmark::State& state) {
  Fcall msg;
  msg.type = FcallType::kRread;
  msg.tag = 3;
  msg.fid = 7;
  msg.data = Bytes(8192, 0x55);
  auto packed = msg.Pack().take();
  for (auto _ : state) {
    auto f = Fcall::Unpack(packed);
    benchmark::DoNotOptimize(f);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_UnpackRread8K);

void BM_PackUnpackStat(benchmark::State& state) {
  Fcall msg;
  msg.type = FcallType::kRstat;
  msg.tag = 9;
  msg.fid = 2;
  msg.stat.name = "clone";
  msg.stat.uid = "bootes";
  msg.stat.qid = Qid{42, 1};
  for (auto _ : state) {
    auto packed = msg.Pack();
    auto back = Fcall::Unpack(*packed);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_PackUnpackStat);

struct RpcFixture {
  RpcFixture() {
    (void)fs.WriteFile("data/file", std::string(64 * 1024, 'x'));
    auto [a, b] = PipeTransport::Make();
    server = std::make_unique<NinepServer>(&fs, std::move(a));
    client = std::make_unique<NinepClient>(std::move(b));
    root = client->AllocFid();
    (void)client->Attach(root, "bench", "");
    file = client->AllocFid();
    (void)client->CloneWalk(root, file, {"data", "file"});
    (void)client->Open(file, kORead);
  }
  RamFs fs;
  std::unique_ptr<NinepServer> server;
  std::unique_ptr<NinepClient> client;
  uint32_t root = 0, file = 0;
};

RpcFixture* Fixture() {
  static RpcFixture* f = new RpcFixture();
  return f;
}

void BM_RpcNop(benchmark::State& state) {
  auto* f = Fixture();
  for (auto _ : state) {
    auto r = f->client->Rpc(TnopMsg());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RpcNop);

void BM_RpcWalkCloneClunk(benchmark::State& state) {
  auto* f = Fixture();
  for (auto _ : state) {
    uint32_t fid = f->client->AllocFid();
    (void)f->client->CloneWalk(f->root, fid, {"data"});
    (void)f->client->Clunk(fid);
  }
}
BENCHMARK(BM_RpcWalkCloneClunk);

void BM_RpcRead8K(benchmark::State& state) {
  auto* f = Fixture();
  for (auto _ : state) {
    auto data = f->client->Read(f->file, 0, 8192);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_RpcRead8K);

// Four callers, one connection, requests that never block.  Process CPU
// time counts the server's workers as well as the callers.
void BM_RpcStatShared(benchmark::State& state) {
  auto* f = Fixture();
  for (auto _ : state) {
    auto r = f->client->Stat(f->file);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcStatShared)->Threads(4)->UseRealTime()->MeasureProcessCPUTime();

void BM_RpcRead8KShared(benchmark::State& state) {
  auto* f = Fixture();
  for (auto _ : state) {
    auto data = f->client->Read(f->file, 0, 8192);
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcRead8KShared)->Threads(4)->UseRealTime()->MeasureProcessCPUTime();

// A file whose reads park for 100 us, as a read of a network connection
// waits for data to arrive.
class ParkFile : public Vnode {
 public:
  Qid qid() override { return Qid{9, 0}; }
  Result<Dir> Stat() override {
    Dir d;
    d.name = "park";
    d.qid = qid();
    return d;
  }
  Result<std::shared_ptr<Vnode>> Walk(const std::string&) override {
    return Error(kErrNotDir);
  }
  Result<Bytes> Read(uint64_t, uint32_t count) override {
    QLockGuard guard(lock_);
    (void)never_.SleepFor(lock_, std::chrono::microseconds(100), [] { return false; });
    return Bytes(std::min<uint32_t>(count, 64), 0x55);
  }

 private:
  QLock lock_;
  Rendez never_;
};

class ParkFs : public Vfs {
 public:
  Result<std::shared_ptr<Vnode>> Attach(const std::string&, const std::string&) override {
    return std::shared_ptr<Vnode>(file_);
  }

 private:
  std::shared_ptr<ParkFile> file_ = std::make_shared<ParkFile>();
};

// Four callers, one connection, every request parks.
void BM_RpcParkedReadShared(benchmark::State& state) {
  struct Park {
    Park() {
      auto [a, b] = PipeTransport::Make();
      server = std::make_unique<NinepServer>(&fs, std::move(a));
      client = std::make_unique<NinepClient>(std::move(b));
      file = client->AllocFid();
      (void)client->Attach(file, "bench", "");
      (void)client->Open(file, kORead);
    }
    ParkFs fs;
    std::unique_ptr<NinepServer> server;
    std::unique_ptr<NinepClient> client;
    uint32_t file = 0;
  };
  static Park* f = new Park();
  for (auto _ : state) {
    auto data = f->client->Read(f->file, 0, 64);
    benchmark::DoNotOptimize(data);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcParkedReadShared)->Threads(4)->UseRealTime()->MeasureProcessCPUTime();

void BM_MountDriverRead8K(benchmark::State& state) {
  // Through MntVnode — the procedural-to-RPC conversion path (§2.1).
  static std::shared_ptr<Vnode> node = [] {
    auto* f = Fixture();
    auto [a, b] = PipeTransport::Make();
    static NinepServer server(&f->fs, std::move(a));
    auto client = std::make_shared<NinepClient>(std::move(b));
    auto root = MntAttach(client, "bench", "").take();
    auto walked = root->Walk("data").take()->Walk("file").take();
    (void)walked->Open(kORead, "bench");
    return walked;
  }();
  for (auto _ : state) {
    auto data = node->Read(0, 8192);
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_MountDriverRead8K);

}  // namespace
}  // namespace plan9

P9_BENCHMARK_MAIN("ninep");
