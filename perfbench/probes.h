// Probes for the traced run: fixed-count timings of single layers, taken
// after the measured phases so they never disturb them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "perfbench/world.h"

namespace p9bench {

struct MicroProbes {
  double pack_ns = 0;        // Fcall::Pack of a 128-byte Twrite
  double unpack_ns = 0;      // Fcall::Unpack of the same
  double pipe_rpc_us = 0;    // rpc9p_il's op over PipeTransport: no network
  double ndb_lookup_us = 0;  // the ndb lookups CS makes for net!musca!echo
  double echo128_ns = 0;     // Stream Write + Read of 128 B through a loop device
  double echo8k_ns = 0;      // the same at 8 KiB
  double timer_fire_us = 0;  // TimerWheel Schedule(0) to callback
  double deliver_us = 0;     // EtherSegment Send to the station's callback
};

MicroProbes RunMicroProbes(uint64_t seed, const plan9::Ndb& db);

// The probes below return how many of their `ops` ops failed (all of them
// if the probe's own set-up failed) and clear *correct on a wrong output.

// rpc9p_il's file op, `ops` times, over a fresh exportfs import in `world`.
// Fills spans' open/read/write/close.
int FileProbe(BenchWorld* world, uint64_t seed, int ops, Spans* spans, bool* correct);

// dial_il's op, `ops` times or for 10 s, whichever ends first, against a
// serial echo server in `world`.  Fills spans' dial and §5 step times.
int DialProbe(BenchWorld* world, int ops, Spans* spans, bool* correct);

}  // namespace p9bench

#endif  // PERFBENCH_PROBES_H_
