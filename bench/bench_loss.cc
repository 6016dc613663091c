// §3's retransmission-strategy ablation, extended with adversarial links.
//
// "In contrast to other protocols, IL does not do blind retransmission.  If
// a message is lost and a timeout occurs, a query message is sent...  This
// allows the protocol to behave well in congested networks, where blind
// retransmission would cause further congestion."
//
// Two experiments:
//
//   1. The classic sweep: an RPC-shaped workload (windowed one-way stream +
//      ack) over IL and TCP at increasing *uniform* loss, reporting goodput
//      and overhead ratio — retransmitted per useful.  TCP's go-back-N
//      resends everything in flight on a timeout; IL queries first and
//      resends only what the State reply shows missing.
//
//   2. A FaultProfile sweep: a ping-pong workload across burst loss,
//      reordering, and a flapping partition, reporting measured loss, p50
//      and p99 per-op latency, and retransmit counts.  Tail latency is where
//      query-based recovery shows its worth.
//
// `--quick` shrinks the workloads (CI); `--json` emits one machine-readable
// object instead of the tables.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/dial/dial.h"
#include "src/inet/il.h"
#include "src/inet/tcp.h"
#include "src/ndb/ndb.h"
#include "src/sim/faults.h"
#include "src/world/boot.h"
#include "src/world/node.h"

using namespace plan9;
using Clock = std::chrono::steady_clock;

namespace {

const char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\nsys=musca\n\tip=135.104.9.6\n";

struct World {
  explicit World(LinkParams params) : ether(params) {
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

LinkParams BaseEther(uint64_t seed) {
  LinkParams p;
  p.bandwidth_bps = 10'000'000;
  p.latency = std::chrono::microseconds(200);
  p.seed = seed;
  p.mtu = 1514;
  return p;
}

// Dial proto!musca!7777 and hand back both data fds.
struct Conn {
  int client_fd = -1;
  int server_fd = -1;
  bool ok = false;
};

Conn Connect(World& w, Proc* sp, Proc* cp, const std::string& proto) {
  Conn c;
  std::string adir;
  auto afd = Announce(sp, proto + "!*!7777", &adir);
  if (!afd.ok()) {
    return c;
  }
  std::thread listener([&] {
    std::string ldir;
    auto lcfd = Listen(sp, adir, &ldir);
    if (lcfd.ok()) {
      auto dfd = Accept(sp, *lcfd, ldir);
      if (dfd.ok()) {
        c.server_fd = *dfd;
      }
      (void)sp->Close(*lcfd);
    }
  });
  DialOptions opts;  // flaky media can eat the handshake; retry through it
  opts.attempts = 5;
  opts.backoff = std::chrono::milliseconds(100);
  auto dfd = Dial(cp, proto + "!135.104.9.6!7777", opts);
  listener.join();
  (void)w.helix;
  if (!dfd.ok() || c.server_fd < 0) {
    return c;
  }
  c.client_fd = *dfd;
  c.ok = true;
  return c;
}

uint64_t ClientRetransmits(World& w, const std::string& proto) {
  if (proto == "il") {
    const auto& s = static_cast<IlConv*>(w.helix->il()->Conv(0))->metrics();
    return s.retransmits.value();
  }
  const auto& s = static_cast<TcpConv*>(w.helix->tcp()->Conv(0))->metrics();
  return s.retransmit_segs.value();
}

// --- experiment 1: uniform loss, streaming goodput -------------------------

struct RunResult {
  double goodput_kbs = 0;
  double overhead_ratio = 0;  // retransmitted / useful
  bool completed = false;
};

RunResult Run(const std::string& proto, double loss, size_t messages, size_t msg_size,
              uint64_t seed) {
  LinkParams params = BaseEther(seed);
  params.faults.loss_good = loss;  // uniform: the chain never leaves Good
  World w(params);
  auto sp = w.musca->NewProc();
  auto cp = w.helix->NewProc();
  Conn conn = Connect(w, sp.get(), cp.get(), proto);
  if (!conn.ok) {
    return {};
  }

  size_t total = messages * msg_size;
  std::thread sink([&] {
    Bytes buf(16 * 1024);
    size_t got = 0;
    while (got < total) {
      auto n = sp->Read(conn.server_fd, buf.data(), buf.size());
      if (!n.ok() || *n == 0) {
        return;
      }
      got += *n;
    }
    (void)sp->Write(conn.server_fd, "!", 1);
  });

  Bytes block(msg_size, 0x3c);
  auto t0 = Clock::now();
  bool ok = true;
  for (size_t i = 0; i < messages && ok; i++) {
    auto n = cp->Write(conn.client_fd, block.data(), block.size());
    ok = n.ok();
  }
  char ack = 0;
  if (ok) {
    auto n = cp->Read(conn.client_fd, &ack, 1);
    ok = n.ok() && *n == 1;
  }
  auto t1 = Clock::now();
  sink.join();

  RunResult r;
  r.completed = ok;
  r.goodput_kbs = static_cast<double>(total) / 1024.0 /
                  std::chrono::duration<double>(t1 - t0).count();
  // Pull retransmission stats from the client conversation (index found via
  // the protocol object: connection 0 is ours — the world is private).
  if (proto == "il") {
    const auto& s = static_cast<IlConv*>(w.helix->il()->Conv(0))->metrics();
    r.overhead_ratio = s.msgs_sent.value() == 0
                           ? 0
                           : static_cast<double>(s.retransmits.value()) /
                                 static_cast<double>(s.msgs_sent.value());
  } else {
    const auto& s = static_cast<TcpConv*>(w.helix->tcp()->Conv(0))->metrics();
    r.overhead_ratio = s.bytes_sent.value() == 0
                           ? 0
                           : static_cast<double>(s.retransmit_bytes.value()) /
                                 static_cast<double>(s.bytes_sent.value());
  }
  (void)cp->Close(conn.client_fd);
  (void)sp->Close(conn.server_fd);
  return r;
}

// --- experiment 2: fault profiles, ping-pong latency tail ------------------

struct NamedProfile {
  const char* name;
  FaultProfile profile;
};

std::vector<NamedProfile> SweepProfiles() {
  FaultProfile uniform;
  uniform.loss_good = uniform.loss_bad = 0.05;
  uniform.p_good_to_bad = 0.0;

  FaultProfile flap;
  flap.flap_period = std::chrono::milliseconds(800);
  flap.flap_down = std::chrono::milliseconds(150);

  return {
      {"uniform", uniform},
      {"burst-loss", FaultProfile::BurstLoss(0.10)},
      {"reorder", FaultProfile::Reorder(0.10, std::chrono::microseconds(3000))},
      {"partition-flap", flap},
  };
}

struct ProfileResult {
  bool completed = false;
  double loss_pct = 0;   // measured at the medium
  double p50_us = 0;
  double p99_us = 0;
  uint64_t retransmits = 0;
  double goodput_kbs = 0;
};

ProfileResult RunProfile(const std::string& proto, const FaultProfile& profile,
                         size_t ops, size_t msg_size, uint64_t seed) {
  LinkParams params = BaseEther(seed);
  params.faults = profile;
  World w(params);
  auto sp = w.musca->NewProc();
  auto cp = w.helix->NewProc();
  Conn conn = Connect(w, sp.get(), cp.get(), proto);
  if (!conn.ok) {
    return {};
  }

  // Echo server: one full message in, the same bytes back.
  std::thread echo([&] {
    Bytes buf(msg_size);
    for (size_t i = 0; i < ops; i++) {
      size_t got = 0;
      while (got < msg_size) {
        auto n = sp->Read(conn.server_fd, buf.data() + got, msg_size - got);
        if (!n.ok() || *n == 0) {
          return;
        }
        got += *n;
      }
      if (!sp->Write(conn.server_fd, buf.data(), msg_size).ok()) {
        return;
      }
    }
  });

  Bytes block(msg_size, 0x5a);
  Bytes back(msg_size);
  std::vector<double> lat_us;
  lat_us.reserve(ops);
  bool ok = true;
  auto t0 = Clock::now();
  for (size_t i = 0; i < ops && ok; i++) {
    auto s0 = Clock::now();
    ok = cp->Write(conn.client_fd, block.data(), msg_size).ok();
    size_t got = 0;
    while (ok && got < msg_size) {
      auto n = cp->Read(conn.client_fd, back.data() + got, msg_size - got);
      ok = n.ok() && *n > 0;
      if (ok) {
        got += *n;
      }
    }
    if (ok) {
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    }
  }
  auto t1 = Clock::now();

  ProfileResult r;
  r.completed = ok && lat_us.size() == ops;
  if (!lat_us.empty()) {
    std::sort(lat_us.begin(), lat_us.end());
    r.p50_us = lat_us[lat_us.size() / 2];
    r.p99_us = lat_us[std::min(lat_us.size() - 1, lat_us.size() * 99 / 100)];
  }
  r.retransmits = ClientRetransmits(w, proto);
  const auto& ms = w.ether.stats();
  r.loss_pct = ms.frames_sent.value() == 0
                   ? 0
                   : 100.0 * static_cast<double>(ms.frames_dropped.value()) /
                         static_cast<double>(ms.frames_sent.value());
  r.goodput_kbs = static_cast<double>(2 * msg_size * lat_us.size()) / 1024.0 /
                  std::chrono::duration<double>(t1 - t0).count();
  (void)cp->Close(conn.client_fd);
  (void)sp->Close(conn.server_fd);
  echo.join();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  setbuf(stdout, nullptr);
  bool quick = false, json = false;
  std::string only_profile;  // --profile=NAME restricts the fault sweep
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      only_profile = arg.substr(10);
    }
  }
  size_t messages = quick ? 150 : 600;
  size_t msg_size = 1024;
  size_t ops = quick ? 120 : 400;
  size_t op_size = 512;
  uint64_t seed = 1234;

  if (!json) {
    std::printf("query-based (IL) vs blind (TCP) retransmission under loss (§3)\n");
    std::printf("workload: %zu x %zuB messages, one direction + ack\n\n", messages,
                msg_size);
    std::printf("%-6s %6s %14s %26s\n", "proto", "loss", "goodput KB/s",
                "retransmit overhead ratio");
  }
  struct UniformRow {
    double loss;
    std::string proto;
    RunResult r;
  };
  std::vector<UniformRow> uniform_rows;
  for (double loss : {0.0, 0.02, 0.05, 0.10, 0.20}) {
    for (const char* proto : {"il", "tcp"}) {
      auto r = Run(proto, loss, messages, msg_size, seed);
      uniform_rows.push_back({loss, proto, r});
      if (!json) {
        std::printf("%-6s %5.0f%% %14.1f %26.3f %s\n", proto, loss * 100,
                    r.goodput_kbs, r.overhead_ratio, r.completed ? "" : "(incomplete)");
      }
    }
  }

  if (!json) {
    std::printf(
        "\noverhead ratio = retransmitted/total sent (messages for IL, bytes for "
        "TCP).\nIL's ratio should stay well below TCP's as loss grows: it asks "
        "(Query/State)\nbefore resending, instead of blindly resending the "
        "window.\n");
    std::printf("\nfault-profile sweep: %zu x %zuB ping-pong ops\n\n", ops, op_size);
    std::printf("%-15s %-6s %7s %10s %10s %10s %12s\n", "profile", "proto", "loss%",
                "p50 us", "p99 us", "rexmit", "goodput KB/s");
  }
  struct ProfileRow {
    std::string profile;
    std::string proto;
    ProfileResult r;
  };
  std::vector<ProfileRow> profile_rows;
  for (const auto& np : SweepProfiles()) {
    if (!only_profile.empty() && only_profile != np.name) {
      continue;
    }
    for (const char* proto : {"il", "tcp"}) {
      auto r = RunProfile(proto, np.profile, ops, op_size, seed);
      profile_rows.push_back({np.name, proto, r});
      if (!json) {
        std::printf("%-15s %-6s %6.1f%% %10.0f %10.0f %10llu %12.1f %s\n", np.name,
                    proto, r.loss_pct, r.p50_us, r.p99_us,
                    static_cast<unsigned long long>(r.retransmits), r.goodput_kbs,
                    r.completed ? "" : "(incomplete)");
      }
    }
  }

  if (json) {
    std::printf("{\n  \"bench\": \"bench_loss\",\n");
    std::printf("  \"uniform_workload\": {\"messages\": %zu, \"msg_size\": %zu},\n",
                messages, msg_size);
    std::printf("  \"uniform\": [\n");
    for (size_t i = 0; i < uniform_rows.size(); i++) {
      const auto& row = uniform_rows[i];
      std::printf("    {\"proto\": \"%s\", \"loss\": %.2f, \"goodput_kbs\": %.1f, "
                  "\"overhead_ratio\": %.4f, \"completed\": %s}%s\n",
                  row.proto.c_str(), row.loss, row.r.goodput_kbs,
                  row.r.overhead_ratio, row.r.completed ? "true" : "false",
                  i + 1 < uniform_rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"profile_workload\": {\"ops\": %zu, \"msg_size\": %zu},\n", ops,
                op_size);
    std::printf("  \"profiles\": [\n");
    for (size_t i = 0; i < profile_rows.size(); i++) {
      const auto& row = profile_rows[i];
      std::printf("    {\"profile\": \"%s\", \"proto\": \"%s\", \"loss_pct\": %.2f, "
                  "\"p50_us\": %.0f, \"p99_us\": %.0f, \"retransmits\": %llu, "
                  "\"goodput_kbs\": %.1f, \"completed\": %s}%s\n",
                  row.profile.c_str(), row.proto.c_str(), row.r.loss_pct, row.r.p50_us,
                  row.r.p99_us, static_cast<unsigned long long>(row.r.retransmits),
                  row.r.goodput_kbs, row.r.completed ? "true" : "false",
                  i + 1 < profile_rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }
  return 0;
}
