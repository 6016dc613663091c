// §3: "None of the standard IP protocols is suitable for transmission of 9P
// messages...  TCP has a high overhead and does not preserve delimiters."
// IL vs TCP as a 9P RPC transport on the same 10 Mb/s Ethernet:
//
//   * RPC latency: 128-byte request / 128-byte reply round trips — a stat-
//     sized 9P exchange (TCP pays framing + ack machinery);
//   * message throughput: 8K writes (the 9P data size), delimited for IL,
//     length-framed for TCP;
//   * code size: the paper quotes 847 lines of IL vs 2200 of TCP; ours are
//     printed by tools/loc.sh and recorded in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "bench/bench_obs.h"
#include "src/dial/dial.h"
#include "src/ndb/ndb.h"
#include "src/world/boot.h"
#include "src/world/node.h"

using namespace plan9;
using Clock = std::chrono::steady_clock;

namespace {

const char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\nsys=musca\n\tip=135.104.9.6\n";

struct World {
  World() : ether(LinkParams::Ether10()) {
    db = std::make_shared<Ndb>();
    (void)db->Load(kNdb);
    helix = std::make_unique<Node>("helix");
    musca = std::make_unique<Node>("musca");
    helix->AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 1},
                    Ipv4Addr::FromOctets(135, 104, 9, 31), Ipv4Addr{0xffffff00});
    musca->AddEther(&ether, MacAddr{8, 0, 0x69, 2, 0x22, 2},
                    Ipv4Addr::FromOctets(135, 104, 9, 6), Ipv4Addr{0xffffff00});
    (void)BootNetwork(helix.get(), db, kNdb);
    (void)BootNetwork(musca.get(), db, kNdb);
  }
  EtherSegment ether;
  std::shared_ptr<Ndb> db;
  std::unique_ptr<Node> helix, musca;
};

struct Conn {
  std::unique_ptr<Proc> cp, sp;
  int cfd = -1, sfd = -1;
};

Conn Connect(World& w, const std::string& proto, const char* port) {
  Conn c;
  c.sp = w.musca->NewProc();
  c.cp = w.helix->NewProc();
  std::string adir;
  auto afd = Announce(c.sp.get(), proto + "!*!" + port, &adir);
  if (!afd.ok()) {
    std::fprintf(stderr, "announce: %s\n", afd.error().message().c_str());
    exit(1);
  }
  int server_fd = -1;
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(c.sp.get(), adir, &ldir);
    if (lcfd.ok()) {
      auto dfd = Accept(c.sp.get(), *lcfd, ldir);
      if (dfd.ok()) {
        server_fd = *dfd;
      }
    }
  });
  auto dfd = Dial(c.cp.get(), proto + "!135.104.9.6!" + port);
  listener.join();
  if (!dfd.ok() || server_fd < 0) {
    std::fprintf(stderr, "dial failed\n");
    exit(1);
  }
  c.cfd = *dfd;
  c.sfd = server_fd;
  return c;
}

// RPC latency: client sends `size` bytes, server replies with `size` bytes.
double RpcLatencyUs(Conn& c, size_t size, int rounds) {
  std::thread server([&] {
    Bytes buf(size * 2);
    for (int i = 0; i < rounds; i++) {
      size_t got = 0;
      while (got < size) {
        auto n = c.sp->Read(c.sfd, buf.data(), buf.size());
        if (!n.ok() || *n == 0) {
          return;
        }
        got += *n;
      }
      (void)c.sp->Write(c.sfd, buf.data(), size);
    }
  });
  Bytes req(size, 0x7);
  Bytes resp(size * 2);
  auto t0 = Clock::now();
  for (int i = 0; i < rounds; i++) {
    (void)c.cp->Write(c.cfd, req.data(), req.size());
    size_t got = 0;
    while (got < size) {
      auto n = c.cp->Read(c.cfd, resp.data(), resp.size());
      if (!n.ok() || *n == 0) {
        break;
      }
      got += *n;
    }
  }
  auto t1 = Clock::now();
  server.join();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / rounds;
}

double ThroughputMBs(Conn& c, size_t msg, size_t total) {
  std::thread sink([&] {
    Bytes buf(64 * 1024);
    size_t got = 0;
    while (got < total) {
      auto n = c.sp->Read(c.sfd, buf.data(), buf.size());
      if (!n.ok() || *n == 0) {
        return;
      }
      got += *n;
    }
    (void)c.sp->Write(c.sfd, "!", 1);
  });
  Bytes block(msg, 0x42);
  auto t0 = Clock::now();
  size_t sent = 0;
  while (sent < total) {
    auto n = c.cp->Write(c.cfd, block.data(), block.size());
    if (!n.ok()) {
      break;
    }
    sent += *n;
  }
  char ack;
  (void)c.cp->Read(c.cfd, &ack, 1);
  auto t1 = Clock::now();
  sink.join();
  return static_cast<double>(total) / (1024.0 * 1024.0) /
         std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = benchutil::ParseBenchFlags(argc, argv, "il_vs_tcp");
  double gate_trace_overhead = -1;
  for (const auto& arg : flags.rest) {
    if (arg.rfind("--gate-trace-overhead=", 0) == 0) {
      gate_trace_overhead = std::atof(arg.c_str() + 22);
    }
  }
  int rounds = flags.quick ? 100 : 400;
  size_t total = (flags.quick ? 1 : 4) * 512 * 1024;

  World w;
  std::printf("9P-transport comparison on a 10 Mb/s Ethernet (§3)\n\n");
  std::printf("%-6s %22s %18s\n", "proto", "128B RPC latency (us)",
              "8K msg tput (MB/s)");
  double lat_us[2], tput_mbs[2];
  const char* protos[2] = {"il", "tcp"};
  for (int i = 0; i < 2; i++) {
    auto lat_conn = Connect(w, protos[i], "9901");
    lat_us[i] = RpcLatencyUs(lat_conn, 128, rounds);
    auto tput_conn = Connect(w, protos[i], "9902");
    tput_mbs[i] = ThroughputMBs(tput_conn, 8192, total);
    std::printf("%-6s %22.1f %18.2f\n", protos[i], lat_us[i], tput_mbs[i]);
  }
  std::printf(
      "\npaper: IL 847 LoC vs TCP 2200 LoC; ours: see tools/loc.sh output in "
      "EXPERIMENTS.md.\nIL preserves delimiters (no framing layer needed for 9P); "
      "TCP needs the marshal module.\n");

  // Causal-tracing overhead (DESIGN.md §12): IL throughput with tracing off
  // vs head sampling at 1/1000.  The off run above already measured the
  // baseline shape; re-measure both on fresh conversations so the only
  // variable is the sampler, which each node sets through its /net/ctl.
  auto ctl = [&w](const char* msg) {
    for (Node* n : {w.helix.get(), w.musca.get()}) {
      (void)n->NewProc()->WriteFile("/net/ctl", msg, /*create=*/false);
    }
  };
  double il_tput_off = ThroughputMBs(
      *std::make_unique<Conn>(Connect(w, "il", "9903")).get(), 8192, total);
  ctl("trace sample 1000");
  double il_tput_sampled = ThroughputMBs(
      *std::make_unique<Conn>(Connect(w, "il", "9904")).get(), 8192, total);
  ctl("trace sample 0");
  ctl("trace off span");
  double overhead_pct =
      il_tput_off > 0 ? (il_tput_off - il_tput_sampled) / il_tput_off * 100.0
                      : 0.0;
  std::printf(
      "\ntracing overhead on IL throughput: off %.2f MB/s, sample 1/1000 "
      "%.2f MB/s (%.2f%%)\n",
      il_tput_off, il_tput_sampled, overhead_pct);

  if (flags.json) {
    std::ostringstream body;
    body << "\"results\": [\n";
    for (int i = 0; i < 2; i++) {
      body << "  {\"proto\": \"" << protos[i] << "\", \"rpc_latency_us\": "
           << lat_us[i] << ", \"throughput_mbs\": " << tput_mbs[i] << "}"
           << (i == 0 ? ",\n" : "\n");
    }
    body << "],\n\"trace_overhead\": {\"il_tput_off\": " << il_tput_off
         << ", \"il_tput_sampled\": " << il_tput_sampled
         << ", \"overhead_pct\": " << overhead_pct << "}";
    benchutil::WriteBenchJson(flags, "il_vs_tcp", body.str());
  }
  if (gate_trace_overhead >= 0 && overhead_pct > gate_trace_overhead) {
    std::fprintf(stderr,
                 "FAIL: tracing overhead %.2f%% exceeds gate %.2f%%\n",
                 overhead_pct, gate_trace_overhead);
    return 1;
  }
  return 0;
}
