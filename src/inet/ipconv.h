// The IP transports' layer of the conversation core (IL, TCP, UDP): what
// the three do with the address quadruple, written once, the way 4.4BSD's
// in_pcb layer sits under both its TCP and its UDP.
//
//   * IpConv<C>: one conversation's quadruple; the ctl verbs the three share
//     (connect and announce, with their checks and bindings, hangup, reject,
//     accept); the local and remote files.
//   * IpConvTable<C>: a protocol's registration with the IP stack and its
//     teardown, its ephemeral ports and initial sequence numbers, the
//     demultiplexer, and spawning a call's conversation from an arriving
//     packet.
//
// Each protocol keeps its header parsing, its state machine, its handshake
// packets and its answer when nobody is home.
#ifndef SRC_INET_IPCONV_H_
#define SRC_INET_IPCONV_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rand.h"
#include "src/base/strings.h"
#include "src/inet/conv.h"
#include "src/inet/ip.h"
#include "src/inet/portutil.h"

namespace plan9 {

template <class C>
class IpConvTable;

template <class C>
class IpConv : public ConvCore {
 public:
  // "connect <addr>!<port>", "announce <port>", "hangup", "reject" ("networks
  // such as IP ignore the third argument", so it is a hangup), "accept" (IP
  // calls are already accepted at listen), then the protocol's own verbs.
  Status Ctl(const std::string& msg) override {
    auto words = Tokenize(msg);
    if (words.empty()) {
      return Error(kErrBadCtl);
    }
    if (words[0] == "connect" && words.size() >= 2) {
      P9_ASSIGN_OR_RETURN(HostPort hp, ParseConnectAddr(words[1]));
      return Connect(hp);
    }
    if (words[0] == "announce" && words.size() >= 2) {
      P9_ASSIGN_OR_RETURN(uint16_t port, ParseAnnounceAddr(words[1]));
      QLockGuard guard(lock_);
      if (!IdleLocked() || ClosedLocked()) {
        return Error(kErrConvInUse);
      }
      lport_ = port;
      AnnounceLocked();
      return Status::Ok();
    }
    if (words[0] == "hangup" || words[0] == "reject") {
      CloseUser();
      return Status::Ok();
    }
    if (words[0] == "accept") {
      return Status::Ok();
    }
    return CtlVerb(words);
  }

  std::string Local() override {
    QLockGuard guard(lock_);
    return StrFormat("%s %u\n", IpToString(ShownLocalLocked()).c_str(), lport_);
  }

  std::string Remote() override {
    QLockGuard guard(lock_);
    return StrFormat("%s %u\n", IpToString(raddr_).c_str(), rport_);
  }

 protected:
  IpConv(IpConvTable<C>* proto, int index, const char* lock_class, const char* module_name)
      : ConvCore(proto, index, lock_class, module_name), proto_(proto), ip_(proto->ip()) {}

  // --- protocol hooks ------------------------------------------------------

  // Neither connected, announced nor spawned for a call yet.
  virtual bool IdleLocked() const REQUIRES(lock_) = 0;
  // connect, once the quadruple is bound: enter the calling state and send
  // the opening packet, if the protocol has one, numbered from `isn`.
  virtual Status ConnectLocked(uint32_t isn) REQUIRES(lock_) = 0;
  // announce, once lport_ is bound: enter the announced state.
  virtual void AnnounceLocked() REQUIRES(lock_) = 0;
  // A call for `listener` arrived and the quadruple is bound: enter the
  // call's state and answer its handshake; `peer_isn` is the caller's
  // initial sequence number.  Returns whether Listen may have the call now
  // (TCP hands it over only once its handshake completes).
  virtual bool AcceptLocked(C* listener, uint32_t isn, uint32_t peer_isn) REQUIRES(lock_) = 0;
  virtual Status CtlVerb(const std::vector<std::string>& words) {
    return Error(kErrBadCtl);
  }

  // The local address as the files show it: the interface's when unbound.
  Ipv4Addr ShownLocalLocked() const REQUIRES(lock_) {
    return laddr_.IsUnspecified() ? ip_->PrimaryAddr() : laddr_;
  }

  IpConvTable<C>* const proto_;
  IpStack* const ip_;
  Ipv4Addr laddr_ GUARDED_BY(lock_), raddr_ GUARDED_BY(lock_);
  uint16_t lport_ GUARDED_BY(lock_) = 0, rport_ GUARDED_BY(lock_) = 0;

 private:
  Status Connect(const HostPort& dest) {
    P9_ASSIGN_OR_RETURN(Ipv4Addr laddr, ip_->SourceFor(dest.addr));
    uint16_t ephemeral = 0;
    uint32_t isn = proto_->DrawIsn(&ephemeral);
    QLockGuard guard(lock_);
    if (!IdleLocked() || ClosedLocked()) {
      return Error(kErrConvInUse);
    }
    laddr_ = laddr;
    raddr_ = dest.addr;
    rport_ = dest.port;
    if (lport_ == 0) {
      lport_ = ephemeral;  // a UDP port fixed with bind is kept
    }
    return ConnectLocked(isn);
  }
};

// C names the table its friend: the table reads C's quadruple and calls
// its hooks.
template <class C>
class IpConvTable : public ConvTable<C> {
 public:
  // What Demux found for a packet: the conversation bound to its quadruple,
  // else the first one announced on its port.
  struct Match {
    C* conv = nullptr;
    C* listener = nullptr;
  };

  IpStack* ip() const { return ip_; }

  // One pass over the slots, the table's lock before each conversation's.
  // The local address is not compared: a packet for any of the host's
  // addresses reaches the conversation.
  Match Demux(Ipv4Addr src, uint16_t dport, uint16_t sport) {
    Match m;
    QLockGuard guard(lock_);
    for (auto& slot : slots_) {
      C* c = slot.get();
      QLockGuard cguard(c->lock_);
      if (c->lport_ != dport) {
        continue;
      }
      if (c->rport_ == sport && c->raddr_ == src && !c->ClosedLocked() &&
          !c->AnnouncedLocked()) {
        return Match{c, nullptr};
      }
      if (m.listener == nullptr && c->AnnouncedLocked()) {
        m.listener = c;
      }
    }
    return m;
  }

  // A call for `listener` arrived in `pkt` from its port `rport` to our
  // `lport`: reserve a conversation, bind it to the packet's quadruple and
  // let the protocol set the call's state in the same critical section.
  // Null when every slot is taken.
  C* Spawn(const IpPacket& pkt, uint16_t lport, uint16_t rport, C* listener,
           uint32_t peer_isn) {
    auto spawned = this->Alloc();
    if (!spawned.ok()) {
      return nullptr;
    }
    C* nc = *spawned;
    uint32_t isn = DrawIsn();
    bool ready;
    {
      QLockGuard guard(nc->lock_);
      nc->laddr_ = pkt.dst;
      nc->lport_ = lport;
      nc->raddr_ = pkt.src;
      nc->rport_ = rport;
      ready = nc->AcceptLocked(listener, isn, peer_isn);
    }
    if (ready) {
      listener->QueueCall(nc);
    }
    return nc;
  }

 protected:
  // The protocol's packet input.  A plain function handed this layer, not a
  // virtual of the protocol: the stack may deliver until the destructor
  // below unregisters, after the protocol's own destructor has run.
  using InputFn = void (*)(IpConvTable& table, IpPacket&& pkt);

  IpConvTable(IpStack* ip, uint8_t protocol, const char* lock_class, uint64_t isn_seed,
              InputFn input)
      : ConvTable<C>(lock_class, ip->obs()), ip_(ip), protocol_(protocol), isn_rng_(isn_seed) {
    ip_->RegisterProtocol(protocol_,
                          [this, input](IpPacket&& pkt) { input(*this, std::move(pkt)); });
  }

  // The protocols keep no state of their own, so this is still before any
  // state goes: unregister, so that no packet arrives from here on, then
  // quiesce the timers.
  ~IpConvTable() override {
    ip_->UnregisterProtocol(protocol_);
    this->Quiesce();
  }

  using ConvTable<C>::lock_;
  using ConvTable<C>::slots_;

 private:
  friend class IpConv<C>;

  std::unique_ptr<C> NewConv(int index) final { return std::make_unique<C>(this, index); }

  // An initial sequence number; for a connect, an ephemeral port first.
  uint32_t DrawIsn(uint16_t* ephemeral = nullptr) {
    QLockGuard guard(lock_);
    if (ephemeral != nullptr) {
      *ephemeral = ports_.Next();
    }
    return static_cast<uint32_t>(isn_rng_.Next());
  }

  IpStack* const ip_;
  const uint8_t protocol_;
  PortAlloc ports_ GUARDED_BY(lock_);  // ephemeral ports, from 5000
  Rng isn_rng_ GUARDED_BY(lock_);      // initial sequence numbers
};

}  // namespace plan9

#endif  // SRC_INET_IPCONV_H_
