// The Ethernet driver (§2.2, Figure 1).
//
// "The LANCE Ethernet driver serves a two level file tree providing device
// control and configuration, user-level protocols like ARP, and diagnostic
// interfaces for snooping software."  Each connection directory corresponds
// to an Ethernet packet type; the files are ctl, data, stats and type.
//
//   * `connect 2048` on ctl selects packet type 2048 (all IP packets);
//   * type -1 selects all packets; `promiscuous` hears the whole cable;
//   * "If several connections on an interface are configured for a
//     particular packet type, each receives a copy of the incoming packets";
//   * data reads return whole frames (dst src type payload); data writes
//     supply dst+payload and the driver "append[s] a packet header
//     containing the source address and packet type";
//   * stats returns ASCII text with the interface address and packet
//     input/output counts.
//
// EtherProto plugs into the generic devproto driver, giving the
// clone/numbered-directory tree of Figure 1.  It is the only station a node
// puts on the cable: the kernel's IP is one more user of the driver, hooked
// in for the frames sent to the station, and transmits through it like a
// data write.
#ifndef SRC_DEV_ETHER_H_
#define SRC_DEV_ETHER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/inet/conv.h"
#include "src/obs/metrics.h"
#include "src/sim/ether_segment.h"
#include "src/task/qlock.h"

namespace plan9 {

class EtherProto;

// Interface counters (net.ether.* in the node's /net/stats).
struct EtherConvMetrics : obs::MetricSet {
  using MetricSet::MetricSet;
  obs::Counter frames_in{this, "net.ether.frames-in"};
  obs::Counter frames_out{this, "net.ether.frames-out"};
  // Input overruns: software lagged the cable.
  obs::Counter drops{this, "net.ether.drops"};
};

class EtherConv : public ConvCore {
 public:
  EtherConv(EtherProto* proto, int index);

  Status Ctl(const std::string& msg) override;
  Status WaitReady() override;
  Result<int> Listen() override { return Error("ether: no listen"); }
  std::string Local() override;
  std::string Remote() override { return "\n"; }
  std::string StatusText() override;
  // A write supplies [6-byte destination][payload]; the driver prepends the
  // source address and the connection's packet type.
  Status SendMessage(Bytes frame) override;

  std::optional<int32_t> type() const;
  bool promiscuous() const;

 private:
  friend class EtherProto;

  // Conversation-core hooks (conv.h).
  void ResetLocked() override REQUIRES(lock_);
  void Close() override;

  void Deliver(Bytes frame) P9_HOT_PATH;

  EtherProto* proto_;
  std::optional<int32_t> type_ GUARDED_BY(lock_);  // -1 = all packets
  bool promiscuous_ GUARDED_BY(lock_) = false;
  EtherConvMetrics metrics_;  // atomic counters; no lock needed
};

class EtherProto : public ConvTable<EtherConv> {
 public:
  // Attaches a station on `segment` with address `mac`.  `name` is the
  // directory name under /net (ether0).
  EtherProto(EtherSegment* segment, MacAddr mac, std::string name = "ether0",
             obs::Context& obs = obs::Context::Root());
  ~EtherProto() override;

  // NetProto:
  std::string name() override { return name_; }

  // Figure 1's per-connection files.
  std::vector<std::string> ConvFileNames() override {
    return {"ctl", "data", "stats", "status", "type"};
  }
  Result<std::string> InfoText(NetConv* conv, const std::string& file) override;

  MacAddr mac() const { return mac_; }

  // The kernel's IP attaches here, as `connect 2048` does from user level:
  // `fn` hears every frame addressed to this station or broadcast, never
  // the foreign frames promiscuity brings in.  It runs with no driver lock
  // held.  Its owner unhooks (Hook(nullptr)), then drains the timer wheel,
  // before it dies.
  void Hook(EtherSegment::RecvFn fn);

  // Crash semantics (node lifecycle): detach the station from the cable and
  // hang up every in-use conversation's stream; Transmit fails from then
  // on.  Idempotent; the destructor must not detach again (the restarted
  // kernel may own a new station on the same segment).
  void Unplug();

  // Transmit payload to dst with the given type; the driver adds the
  // source address.  Takes no driver lock: IP calls it under ip.stack.
  Status Transmit(MacAddr dst, uint16_t type, Bytes payload) P9_HOT_PATH;

  void UpdatePromiscuity();

  // Hand one received frame to the hooked IP, then demultiplex it to the
  // matching conversations (called from the segment callback; public for
  // the demux benchmarks).
  void Input(const EtherFrame& frame);

 private:
  friend class EtherConv;

  std::unique_ptr<EtherConv> NewConv(int index) override {
    return std::make_unique<EtherConv>(this, index);
  }

  std::string name_;
  EtherSegment* segment_;
  MacAddr mac_;
  EtherSegment::StationId station_;
  EtherSegment::RecvFn hook_ GUARDED_BY(lock_);
  std::atomic<bool> unplugged_{false};
};

}  // namespace plan9

#endif  // SRC_DEV_ETHER_H_
