// The benchmark's two-node world and the operations its workloads repeat.
//
// helix (the client) and musca (the server) share one in-process
// EtherSegment with no bandwidth cap, no latency and a 1514-byte MTU, so the
// library's software, not the simulated wire, sets the pace.  No traffic
// crosses a kernel socket or loopback.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/ndb/ndb.h"
#include "src/ns/proc.h"
#include "src/sim/ether_segment.h"
#include "src/svc/service.h"
#include "src/world/node.h"

namespace p9bench {

// IP addresses and services both nodes' connection servers resolve.
inline constexpr char kNdb[] =
    "sys=helix\n\tip=135.104.9.31\n"
    "sys=musca\n\tip=135.104.9.6\n"
    "il=echo port=56789\n"
    "il=exportfs port=17007\n"
    "il=sink port=17010\n"
    "tcp=sink port=17011\n";

// LinkParams of the benchmark's ether: uncapped, MTU 1514, seeded.
plan9::LinkParams Uncapped(uint64_t seed);

class BenchWorld {
 public:
  // Boots both nodes (ether attachment, CS/DNS from kNdb).  Check ok().
  explicit BenchWorld(uint64_t seed);
  BenchWorld(const BenchWorld&) = delete;
  BenchWorld& operator=(const BenchWorld&) = delete;

  bool ok() const { return ok_; }
  plan9::Node* helix() { return helix_.get(); }
  plan9::Node* musca() { return musca_.get(); }
  const plan9::Ndb& db() const { return *db_; }

 private:
  // Declaration order is teardown order, reversed: nodes before the cable.
  plan9::EtherSegment ether_;
  std::shared_ptr<plan9::Ndb> db_;
  std::unique_ptr<plan9::Node> helix_;
  std::unique_ptr<plan9::Node> musca_;
  bool ok_ = false;
};

// A serial Listen/Accept loop on one benchmark-owned thread: one call at a
// time, each handled to completion on that thread.  Used instead of Serve /
// StartEchoService because Service keeps every finished per-call kproc until
// Stop(), so connection churn against it exhausts threads.
class SerialServer {
 public:
  // Handler owns nothing: the loop closes the data fd after it returns.
  using Handler = std::function<void(plan9::Proc* proc, int dfd)>;

  // Announces `addr` ("il!*!echo") on `node`.  Null on failure.
  static std::unique_ptr<SerialServer> Start(plan9::Node* node, const std::string& addr,
                                             Handler handler);
  // Closes the announcement and joins the thread.  The current caller must
  // have hung up first, or the handler never returns.
  ~SerialServer();
  SerialServer(const SerialServer&) = delete;
  SerialServer& operator=(const SerialServer&) = delete;

 private:
  SerialServer(std::unique_ptr<plan9::Proc> proc, int afd, std::string adir,
               Handler handler);
  void Loop();

  std::unique_ptr<plan9::Proc> proc_;
  int afd_;
  std::string adir_;
  Handler handler_;
  std::thread thread_;
};

// Echoes each read back until EOF.
void EchoHandler(plan9::Proc* proc, int dfd);

// Per-call times (µs) a traced phase records around the library's public
// calls.  Empty vectors mean the phase made no such call.
struct Spans {
  std::vector<double> open, read, write, close;
  std::vector<double> dial, cs_query, clone_open, connect, data_open;
};

// The 9P file workload's op set: kFiles files of kSize bytes under `dir` in
// some proc's name space, with a shadow copy of what each should hold.
class FileSet {
 public:
  static constexpr int kFiles = 64;
  static constexpr size_t kSize = 128;

  FileSet(uint64_t seed, std::string dir) : seed_(seed), dir_(std::move(dir)) {}

  // File i's name within the directory ("f07").
  static std::string Leaf(int file);
  // Contents of file i after its `version`-th write (version 0 = initial).
  std::string Content(int file, uint64_t version) const;

  // One op: Open + 128-byte Read or Write + Close on the file chosen by the
  // seed.  Ops alternate write, read.  A read must return the shadow copy;
  // a mismatch clears *correct.  Returns false if any call failed.
  bool Op(plan9::Proc* proc, Spans* spans, bool* correct);

 private:
  uint64_t seed_;
  std::string dir_;
  uint64_t ops_ = 0;
  uint64_t versions_[kFiles] = {};
  bool unknown_[kFiles] = {};
};

// Retries a set-up's first connection up to three times: about one IL dial
// in 400-5000 fails at once (a library defect, see README.md), and a failed
// set-up would end the run.
bool Connect(const std::function<bool()>& attempt);

// Serves `files` from musca's /lib/<tree> through exportfs and imports that
// tree into `importer`'s name space at /n/<tree>, where `files` must live.
// Returns the exportfs service (stop it after the importer hangs up), or
// null on failure.
std::unique_ptr<plan9::Service> ServeFiles(BenchWorld* world, const FileSet& files,
                                           const std::string& tree,
                                           plan9::Proc* importer);

// The dial workload's op: Dial("net!musca!echo"), echo one byte, hang up.
// With spans, even ops time the library Dial and odd ops do §5's dance by
// hand (cs query, clone open, connect, data open) so each step gets a time.
bool DialEchoOp(plan9::Proc* proc, uint64_t n, Spans* spans, bool* correct);

// splitmix64: the benchmark's seeded generator for files and payloads.
uint64_t Mix(uint64_t x);

}  // namespace p9bench

#endif  // PERFBENCH_WORLD_H_
