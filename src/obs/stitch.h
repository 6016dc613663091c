// Span stitching: from flight-recorder text to per-trace span trees.
//
// The reader half of causal tracing (DESIGN.md §12).  ParseSpans scans
// rendered /net/trace text for kSpan lines (any other kinds are ignored, so
// a mixed dump — chaos schedules, IL events, fault events — parses fine),
// merges each span's begin/end records, and deduplicates: the same ring
// read through two mounts must count once.  StitchSpans groups spans
// by trace id and builds parent/child trees, flagging orphans (a parent id
// never seen — the CI gate) and unfinished spans (begin without end — how a
// stuck RPC shows up in a chaos dump).
//
// Lives in src/obs (not tools/) so tests and the chaos InvariantChecker can
// stitch without shelling out to trace9.
#ifndef SRC_OBS_STITCH_H_
#define SRC_OBS_STITCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace plan9 {
namespace obs {

struct SpanRecord {
  std::string trace;  // 32-hex trace id
  uint64_t span = 0;
  uint64_t parent = 0;  // 0 = root
  std::string op;       // "9p.server.walk", "dial.cs", ...
  std::string host;     // the recording node's sysname; "-" for the root
  double begin_s = 0;   // seconds since recorder epoch (begin, or end if
                        // only the end record was seen)
  uint64_t us = 0;      // duration; 0 until the end record lands
  bool begun = false;
  bool ended = false;
};

// One reconstructed trace: every span that shares the trace id.
struct SpanTree {
  std::string trace;
  std::vector<SpanRecord> spans;   // sorted by begin_s
  std::vector<uint64_t> roots;     // span ids with parent 0
  std::vector<uint64_t> orphans;   // span ids whose parent was never seen
  std::vector<uint64_t> unfinished;  // begun but never ended
};

// Parse one rendered trace text (possibly a concatenation of several
// /net/trace reads); duplicate records collapse.
std::vector<SpanRecord> ParseSpans(const std::string& text);

// Group and link; trees come back ordered by first span time.
std::vector<SpanTree> StitchSpans(const std::vector<SpanRecord>& spans);

// Indented tree, one span per line: op, host, duration, flags.
std::string RenderSpanTree(const SpanTree& tree);

// Longest parent->child chain length (the hop count a test asserts on).
int SpanTreeDepth(const SpanTree& tree);

// The chain of heaviest children from the heaviest root:
//   "9p.client.walk@helix 512us -> 9p.server.walk@musca 318us -> ..."
std::string CriticalPath(const SpanTree& tree);

// Total span microseconds per host, "host us count" per line — the
// per-hop latency attribution summary.
std::string PerHopSummary(const std::vector<SpanTree>& trees);

}  // namespace obs
}  // namespace plan9

#endif  // SRC_OBS_STITCH_H_
