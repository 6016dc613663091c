// EtherSegment — a broadcast Ethernet cable.
//
// Stations attach with a 6-byte MAC address and a receive callback.  A frame
// is delivered to the station whose address matches the destination, to all
// stations for the broadcast address, and additionally to any station in
// promiscuous mode (the ether device's snooping interface, §2.2).  The
// segment is a shared medium: one frame serializes at a time.
#ifndef SRC_SIM_ETHER_SEGMENT_H_
#define SRC_SIM_ETHER_SEGMENT_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/thread_annotations.h"
#include "src/base/result.h"
#include "src/sim/faults.h"
#include "src/sim/medium.h"
#include "src/task/qlock.h"
#include "src/task/timers.h"

namespace plan9 {

using MacAddr = std::array<uint8_t, 6>;

inline constexpr MacAddr kEtherBroadcast = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};

std::string MacToString(const MacAddr& mac);  // "0800690222f0"

// On-the-cable frame layout: dst[6] src[6] type[2,big-endian] payload.
struct EtherFrame {
  MacAddr dst{};
  MacAddr src{};
  uint16_t type = 0;
  Bytes payload;

  Bytes Pack() const;
  static Result<EtherFrame> Unpack(const Bytes& raw);
};
inline constexpr size_t kEtherHeaderSize = 14;

class EtherSegment {
 public:
  using RecvFn = std::function<void(const EtherFrame&)>;
  using StationId = int;

  explicit EtherSegment(LinkParams params = LinkParams::Ether10());
  ~EtherSegment();

  // Attach a station.  Callbacks run one at a time, with no lock held, on
  // the timer wheel's executor (its kproc, or a thread closing a delivery
  // scope) and must not block.
  StationId Attach(MacAddr mac, RecvFn fn);
  void Detach(StationId id);
  void SetPromiscuous(StationId id, bool on);

  // Queue a frame for transmission on the cable; the frame travels on by
  // move.
  Status Send(EtherFrame frame);

  const MediaStats& stats();
  const FaultStats& fault_stats();

  // Temporary partition (the test's hand on the cable): while down, every
  // frame sent drops as a partition loss.  Frames already in flight still
  // arrive — propagation was committed at send time.
  void SetPartitioned(bool down);

 private:
  struct Station {
    StationId id;
    MacAddr mac;
    RecvFn recv;
    bool promiscuous = false;
  };
  struct Shared {
    // A leaf lock: held only across bookkeeping; delivery callbacks run
    // with it dropped.
    QLock lock{"sim.ether"};
    MediumCore medium GUARDED_BY(lock);
    std::vector<Station> stations GUARDED_BY(lock);
    StationId next_id GUARDED_BY(lock) = 1;
    bool down GUARDED_BY(lock) = false;
  };

  std::shared_ptr<Shared> shared_;
};

}  // namespace plan9

#endif  // SRC_SIM_ETHER_SEGMENT_H_
