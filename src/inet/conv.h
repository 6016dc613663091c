// The conversation core under every protocol device (§2.3).
//
// "All protocol devices look identical so user programs contain no
// network-specific code" — and underneath they share one implementation of
// everything that is not protocol, the way Plan 9's devip serves every
// protocol from one Proto/Conv table:
//
//   * ConvTable<C>: a protocol's slot table (clone, numbered conversations),
//     its lock, and teardown: Abort on a crash, timer quiescing on
//     destruction.  Conversation objects keep their addresses for the
//     table's lifetime, because devproto vnodes and timer callbacks hold raw
//     pointers to them.
//   * ConvCore: one conversation's lock, stream, listen queue, deferred
//     hangup, slot lifecycle and generation-checked retransmit timer.
//   * MessageModule: the stream device module that gathers a user write up
//     to its delimiter and hands it to the conversation as one message.
//   * RttEstimator: Van Jacobson round-trip smoothing and a backoff-doubled
//     retransmit timeout.
//
// Each protocol keeps only its wire format and state machine.
#ifndef SRC_INET_CONV_H_
#define SRC_INET_CONV_H_

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/base/thread_annotations.h"
#include "src/inet/netproto.h"
#include "src/stream/stream.h"
#include "src/task/qlock.h"
#include "src/task/rendez.h"
#include "src/task/timers.h"

namespace plan9 {

inline constexpr char kErrConvInUse[] = "connection already in use";

class ConvCore : public NetConv {
 public:
  ~ConvCore() override;

  // Blocks until a call spawned for this announced conversation arrives;
  // returns the call's conversation number.
  Result<int> Listen() override;

  // The last file reference is gone: the protocol starts its close, calls
  // still queued for Listen are closed too, and the slot returns to the
  // table once the close has hung up the stream.
  void CloseUser() final;

  // A user write gathered up to its delimiter (MessageModule).
  virtual Status SendMessage(Bytes msg) MAY_BLOCK = 0;

 protected:
  // `lock_class` names the conversation lock for lockcheck and plan9lint;
  // `module_name` names the stream's device module.
  ConvCore(NetProto* table, int index, const char* lock_class,
           const char* module_name);

  // --- protocol hooks ------------------------------------------------------

  // Protocol state for a new occupant of the slot.
  virtual void ResetLocked() REQUIRES(lock_) = 0;
  // Whether Listen may wait here.
  virtual bool AnnouncedLocked() const REQUIRES(lock_) { return false; }
  // The user let go: begin the protocol's close, which ends, at once or
  // after a handshake, in HangupLocked.
  virtual void Close() = 0;
  // Crash: close at once, emitting nothing; blocked users see `why`.
  virtual void Abandon(const std::string& why);
  // The retransmit timer fired (current generation only).
  virtual void TimerLocked() REQUIRES(lock_) {}
  // The stream's device module: MessageModule unless overridden.
  virtual std::unique_ptr<StreamModule> NewModule();

  // --- services for protocols -----------------------------------------------

  // Close the conversation.  The first call records `why` for blocked users
  // (unless a reason is already set), stops the timer and leaves a stream
  // hangup pending; later calls do nothing.  Stream::Hangup takes the
  // stream chain lock, which the write path holds while taking lock_, so the
  // hangup is delivered only once lock_ is dropped:
  //   bool hangup = TakeHangupLocked();  /* unlock */  if (hangup) DeliverHangup();
  void HangupLocked(std::string_view why) REQUIRES(lock_);
  bool TakeHangupLocked() REQUIRES(lock_) { return std::exchange(hangup_pending_, false); }
  void DeliverHangup();
  // Delivers a pending hangup and wakes every sleeper; call unlocked.
  void Settle();
  bool ClosedLocked() const REQUIRES(lock_) { return closed_; }

  // Queue a call spawned for this announced conversation and wake Listen.
  // A call that arrives after the announcement is gone is closed instead.
  void QueueCall(ConvCore* call);

  // The generation-checked retransmit timer.  Every arm and cancel starts a
  // new generation, so a firing the wheel had already collected before a
  // re-arm or cancel finds itself stale and does nothing.  Nothing is armed
  // once the table is being torn down.
  void ArmTimerLocked(std::chrono::microseconds delay) REQUIRES(lock_);
  void CancelTimerLocked() REQUIRES(lock_);
  bool TimerArmedLocked() const REQUIRES(lock_) { return timer_ != kNoTimer; }

  // Conversation lock: ordered after the table's lock (demux and clone hold
  // both), before stream.queue (delivery) and timer (ArmTimerLocked).
  mutable QLock lock_;
  Rendez ready_;     // connection established or refused
  Rendez window_;    // send space
  Rendez incoming_;  // calls queued for Listen
  std::string err_ GUARDED_BY(lock_);  // why the conversation died

 private:
  template <class C>
  friend class ConvTable;

  // A fresh stream and lifecycle for a new occupant.  Input paths take the
  // stream under lock_ and deliver to it once the lock is dropped.
  void Reset();
  // Closed, hung up, let go by its user: ready for a new occupant once no
  // file refers to it.
  bool FreeLocked() const REQUIRES(lock_) {
    return hungup_ && released_ && refs.load() == 0;
  }
  void Abort(const std::string& why);
  void TimerFire(uint64_t gen);

  NetProto* table_;
  const char* module_name_;
  std::deque<int> calls_ GUARDED_BY(lock_);  // queued for Listen
  bool closed_ GUARDED_BY(lock_) = false;
  bool hangup_pending_ GUARDED_BY(lock_) = false;
  bool hungup_ GUARDED_BY(lock_) = false;    // the close's hangup delivered
  // CloseUser ran.  Until then the slot is held even at refs == 0: by a
  // spawned call still queued for Listen, or a last file mid-close.
  bool released_ GUARDED_BY(lock_) = false;
  bool dying_ GUARDED_BY(lock_) = false;     // table teardown: never re-arm
  TimerId timer_ GUARDED_BY(lock_) = kNoTimer;
  uint64_t timer_gen_ GUARDED_BY(lock_) = 0;
};

template <class C>
class ConvTable : public NetProto {
 public:
  ~ConvTable() override { Quiesce(); }

  // The clone file: reserve the first free slot, else a new one.
  Result<NetConv*> Clone() override {
    P9_ASSIGN_OR_RETURN(C * c, Alloc());
    return static_cast<NetConv*>(c);
  }

  NetConv* Conv(size_t index) override {
    QLockGuard guard(lock_);
    return index < slots_.size() ? slots_[index].get() : nullptr;
  }

  size_t ConvCount() override {
    QLockGuard guard(lock_);
    return slots_.size();
  }

  // Crash semantics (node lifecycle): abandon every conversation abruptly —
  // queued calls dropped, blocked users woken with `why`, nothing emitted —
  // then wait out timer callbacks already running, after which no
  // conversation can emit or re-arm.  Call after unplugging the medium.
  void Abort(const std::string& why) MAY_BLOCK {
    std::vector<C*> convs;
    {
      QLockGuard guard(lock_);
      for (auto& slot : slots_) {
        convs.push_back(slot.get());
      }
    }
    for (C* c : convs) {
      c->Abort(why);
    }
    TimerWheel::Default().Drain();
  }

 protected:
  ConvTable(const char* lock_class, obs::Context& obs)
      : NetProto(obs), lock_(lock_class) {}

  virtual std::unique_ptr<C> NewConv(int index) = 0;

  Result<C*> Alloc() {
    QLockGuard guard(lock_);
    for (auto& slot : slots_) {
      C* c = slot.get();
      bool free;
      {
        QLockGuard cguard(c->lock_);
        free = c->FreeLocked();
      }
      if (free) {
        c->Reset();
        return c;
      }
    }
    if (slots_.size() >= kMaxConvs) {
      return Error(kErrNoConv);
    }
    slots_.push_back(NewConv(static_cast<int>(slots_.size())));
    C* c = slots_.back().get();
    c->Reset();
    return c;
  }

  // Stop every conversation's timer for good and wait out callbacks already
  // running.  Protocols call it first thing in their destructors, while the
  // state those callbacks touch is still whole.
  void Quiesce() MAY_BLOCK {
    {
      QLockGuard guard(lock_);
      for (auto& slot : slots_) {
        C* c = slot.get();
        QLockGuard cguard(c->lock_);
        c->dying_ = true;
        c->CancelTimerLocked();
      }
    }
    TimerWheel::Default().Drain();
  }

  // The protocol lock: ordered before its conversations' locks.
  QLock lock_;
  std::vector<std::unique_ptr<C>> slots_ GUARDED_BY(lock_);
};

// The device module of a delimited conversation (IL, UDP, URP, Cyclone,
// ether): data blocks are gathered until the write's delimiter, so one user
// write is one protocol message however the stream split it.
class MessageModule : public StreamModule {
 public:
  MessageModule(ConvCore* conv, std::string_view name) : conv_(conv), name_(name) {}
  std::string_view name() const override { return name_; }
  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH;

 private:
  ConvCore* conv_;
  std::string_view name_;
  Bytes pending_;
};

// Van Jacobson round-trip estimation (IL, TCP): srtt and mean deviation
// smoothed from samples, and a retransmit timeout of srtt + 4*mdev doubled
// once per consecutive timeout, clamped to the protocol's bounds.
class RttEstimator {
 public:
  struct Bounds {
    std::chrono::microseconds min;
    std::chrono::microseconds max;
    std::chrono::microseconds initial;  // the RTO base before any sample
    int max_doublings;
  };

  explicit RttEstimator(const Bounds& bounds) : bounds_(bounds) {}

  void Sample(std::chrono::microseconds sample);
  std::chrono::microseconds Rto() const;
  std::chrono::microseconds srtt() const { return srtt_; }

  // Consecutive timeouts: Backoff counts one and returns the new count.
  int Backoff() { return ++backoff_; }
  void ResetBackoff() { backoff_ = 0; }
  void Reset() {
    srtt_ = mdev_ = std::chrono::microseconds(0);
    backoff_ = 0;
  }

 private:
  Bounds bounds_;
  std::chrono::microseconds srtt_{0};
  std::chrono::microseconds mdev_{0};
  int backoff_ = 0;
};

}  // namespace plan9

#endif  // SRC_INET_CONV_H_
