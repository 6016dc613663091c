#include "src/ninep/client.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/stream/queue.h"
#include "src/task/timers.h"

namespace plan9 {

NinepClient::NinepClient(std::unique_ptr<MsgTransport> transport, obs::Context& obs)
    : transport_(std::move(transport)), obs_(obs) {}

NinepClient::~NinepClient() { transport_->Close(); }

uint16_t NinepClient::AllocTagLocked() {
  uint16_t tag;
  do {
    tag = next_tag_++;
    if (next_tag_ == kNoTag) {
      next_tag_ = 1;
    }
  } while (pending_.count(tag) != 0);
  return tag;
}

std::function<void()> NinepClient::FailAllLocked(const std::string& why) {
  if (dead_) {
    return nullptr;
  }
  dead_ = true;
  death_reason_ = why;
  stats_.failures.Inc();
  for (auto& [tag, waiter] : pending_) {
    waiter->have_reply = true;
    waiter->reply = RerrorMsg(tag, why);
    WakeLocked(*waiter);
  }
  pending_.clear();
  if (!on_dead_) {
    return nullptr;
  }
  return [hook = on_dead_, why] { hook(why); };
}

void NinepClient::Fail(const std::string& why) {
  std::function<void()> dead_hook;
  {
    QLockGuard guard(lock_);
    dead_hook = FailAllLocked(why);
  }
  if (dead_hook) {
    dead_hook();
  }
}

bool NinepClient::WakeLocked(Pending& p) {
  if (!p.asleep) {
    return false;
  }
  p.asleep = false;
  p.done.Wakeup();  // one sleeper per Pending
  return true;
}

void NinepClient::HandOffLocked() {
  for (auto& [tag, waiter] : pending_) {
    if (WakeLocked(*waiter)) {
      return;
    }
  }
}

void NinepClient::DeliverLocked(Fcall reply) {
  auto it = pending_.find(reply.tag);
  if (it == pending_.end()) {
    // A reply for a tag whose Rflush already won, or one FailAll dropped.
    P9_LOG(kDebug) << "9p client: reply for unknown tag";
    return;
  }
  std::shared_ptr<Pending> waiter = std::move(it->second);
  pending_.erase(it);
  if (waiter->oldtag != kNoTag) {
    // A flush is answered: the server will never answer its old tag, so the
    // tag is reaped, unless its reply already came and freed it for reuse.
    auto old = pending_.find(waiter->oldtag);
    if (old != pending_.end() && old->second->flusher == waiter) {
      pending_.erase(old);
    }
  }
  waiter->have_reply = true;
  waiter->reply = std::move(reply);
  WakeLocked(*waiter);
  if (waiter->flusher != nullptr) {
    WakeLocked(*waiter->flusher);
  }
}

bool NinepClient::Await(Pending& mine, const Pending* also, Clock::time_point deadline) {
  std::function<void()> dead_hook;
  bool answered = false;
  {
    QLockGuard guard(lock_);
    auto done = [&]() REQUIRES(lock_) {
      return mine.have_reply || (also != nullptr && also->have_reply);
    };
    for (;;) {
      if (done()) {
        answered = true;
        break;
      }
      if (Clock::now() >= deadline) {
        break;
      }
      if (reading_) {
        // Another caller reads: sleep until it files this reply or passes
        // the role on.
        mine.asleep = true;
        if (deadline == Clock::time_point::max()) {
          mine.done.Sleep(lock_);
        } else {
          mine.done.SleepUntil(lock_, deadline);
        }
        mine.asleep = false;
        continue;
      }
      // Take the reader role.  The read and the unpacking run with the lock
      // dropped; a read the alarm cuts short loops back to the deadline check.
      reading_ = true;
      guard.Unlock();
      Result<Bytes> raw = Error(std::string(kErrInterrupted));
      {
        ReadAlarm alarm(deadline);
        raw = transport_->ReadMsg();
      }
      Result<Fcall> reply = Error(std::string(kErrHungup));
      if (raw.ok() && !raw->empty()) {
        reply = Fcall::Unpack(*raw);
      }
      guard.Lock();
      reading_ = false;
      if (raw.ok() && !raw->empty()) {
        if (reply.ok()) {
          DeliverLocked(reply.take());
        } else {
          P9_LOG(kWarn) << "9p client: " << reply.error().message();
        }
      } else if (raw.ok() || !raw.error().Is(kErrInterrupted)) {
        dead_hook = FailAllLocked(raw.ok() ? std::string(kErrHungup) : raw.error().message());
      }
    }
    // Leaving with the role free: pass it to a sleeping waiter (mntgate).
    if (!reading_) {
      HandOffLocked();
    }
  }
  if (dead_hook) {
    dead_hook();
  }
  return answered;
}

Result<Fcall> NinepClient::FlushAndReap(uint16_t oldtag, std::shared_ptr<Pending> waiter,
                                        std::chrono::milliseconds timeout,
                                        bool interrupted) {
  // Both tags stay registered in pending_ until the old reply or the Rflush
  // arrives, so a late reply is matched to its waiter, never to a recycled
  // tag; whoever reads the Rflush reaps the old tag (DeliverLocked).
  auto flushw = std::make_shared<Pending>();
  flushw->oldtag = oldtag;
  Fcall tf = TflushMsg(oldtag);
  {
    QLockGuard guard(lock_);
    if (waiter->have_reply) {
      return waiter->reply;  // lost the race: the reply just landed
    }
    if (!interrupted) {
      stats_.timeouts.Inc();
    }
    tf.tag = AllocTagLocked();
    pending_[tf.tag] = flushw;
    waiter->flusher = flushw;
  }
  auto packed = tf.Pack();
  Status sent;
  {
    TimerWheel::RunHere deliver(TimerWheel::Default());  // as in Rpc
    sent = packed.ok() ? transport_->WriteMsg(std::move(*packed)) : packed.error();
  }
  if (!sent.ok()) {
    Fail(StrFormat("9p flush failed: %s", sent.error().message().c_str()));
    return Error(std::string(kErrTimedOut));
  }
  stats_.flushes_sent.Inc();
  if (interrupted) {
    return Error(std::string(kErrInterrupted));
  }
  // Wait for whichever the server sends first: the old reply (it beat the
  // flush) or the Rflush (the RPC is officially dead).
  const auto flush_deadline = Clock::now() + timeout;
  (void)Await(*flushw, waiter.get(), std::min(flush_deadline, ReadAlarm::Deadline()));
  std::function<void()> dead_hook;
  Result<Fcall> out = Error(std::string(kErrTimedOut));
  {
    QLockGuard guard(lock_);
    if (waiter->have_reply) {
      // The original reply won (or FailAll stamped an error into it).  The
      // orphan Rflush, if still owed, is consumed by a later reader against
      // the still-registered flush tag.
      if (!dead_) {
        stats_.late_replies.Inc();
      }
      out = waiter->reply;
    } else if (flushw->have_reply) {
      // Rflush confirmed, and its reader reaped the old tag.
      stats_.flushed.Inc();
    } else if (Clock::now() < flush_deadline) {
      // The thread's alarm rang first; both tags stay registered.
      out = Error(std::string(kErrInterrupted));
    } else {
      // Neither the RPC nor its flush was answered: the connection is gone.
      dead_hook = FailAllLocked("9p rpc timed out (flush unanswered)");
    }
  }
  if (dead_hook) {
    dead_hook();
  }
  return out;
}

Result<Fcall> NinepClient::Rpc(Fcall tx) {
  // Each RPC is a span: a child of the caller's context when one is active
  // (an exportfs relay, a traced application), otherwise a fresh root if the
  // sampler picks it.  The context rides to the server as a message trailer,
  // stamped per outstanding tag.
  obs::ScopedSpan span(FcallSpanOp(tx.type, /*server=*/false), obs_,
                       obs::ScopedSpan::kRootAtEntry);
  if (span.active()) {
    tx.trace = span.context();
  }
  auto started = Clock::now();
  auto waiter = std::make_shared<Pending>();
  std::chrono::milliseconds timeout{0};
  {
    QLockGuard guard(lock_);
    if (dead_) {
      return Error(death_reason_);
    }
    stats_.rpcs.Inc();
    tx.tag = AllocTagLocked();
    pending_[tx.tag] = waiter;
    timeout = rpc_timeout_;
  }
  auto packed = tx.Pack();
  if (!packed.ok()) {
    QLockGuard guard(lock_);
    pending_.erase(tx.tag);
    return packed.error();
  }
  Status sent;
  {
    // This thread is about to wait for the answer: it delivers the request's
    // zero-delay frames itself instead of waking the timer kproc to.
    TimerWheel::RunHere deliver(TimerWheel::Default());
    sent = transport_->WriteMsg(std::move(*packed));
  }
  if (!sent.ok()) {
    // With no reader to see the hangup, the failed write is the news that
    // the connection is gone.
    Fail(sent.error().message());
    return sent.error();
  }
  // The RPC's own deadline, and the thread's alarm when this RPC runs inside
  // another client's read (a 9P transport over a mounted data file).
  const auto own = timeout.count() > 0 ? Clock::now() + timeout : Clock::time_point::max();
  Result<Fcall> reply = Error(std::string(kErrTimedOut));
  if (Await(*waiter, nullptr, std::min(own, ReadAlarm::Deadline()))) {
    reply = std::move(waiter->reply);
  } else {
    reply = FlushAndReap(tx.tag, waiter, timeout, /*interrupted=*/Clock::now() < own);
    if (!reply.ok()) {
      return reply.error();
    }
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - started);
  obs_.stats().rpc_latency.Record(static_cast<uint64_t>(elapsed.count()));
  P9_TRACE(obs_.recorder(), obs::TraceKind::kNinep, "9p.client",
           StrFormat("%s tag %u -> %s", FcallTypeName(tx.type), tx.tag,
                     FcallTypeName(reply->type)),
           tx.tag, static_cast<uint64_t>(elapsed.count()));
  if (reply->type == FcallType::kRerror) {
    return Error(reply->ename);
  }
  // Sanity: reply type must be request type + 1.
  if (static_cast<uint8_t>(reply->type) != static_cast<uint8_t>(tx.type) + 1) {
    return Error(StrFormat("mismatched 9p reply: %s for %s",
                           FcallTypeName(reply->type), FcallTypeName(tx.type)));
  }
  return reply;
}

void NinepClient::SetRpcTimeout(std::chrono::milliseconds timeout) {
  QLockGuard guard(lock_);
  rpc_timeout_ = timeout;
}

void NinepClient::OnDead(std::function<void(const std::string&)> hook) {
  QLockGuard guard(lock_);
  on_dead_ = std::move(hook);
}

uint32_t NinepClient::AllocFid() {
  QLockGuard guard(lock_);
  return next_fid_++;
}

Status NinepClient::Session() {
  auto r = Rpc(TsessionMsg());
  if (!r.ok()) {
    return r.error();
  }
  return Status::Ok();
}

Result<Qid> NinepClient::Attach(uint32_t fid, const std::string& uname,
                                const std::string& aname) {
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TattachMsg(fid, uname, aname)));
  return r.qid;
}

Result<Qid> NinepClient::Walk(uint32_t fid, const std::string& name) {
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TwalkMsg(fid, name)));
  return r.qid;
}

Result<Qid> NinepClient::CloneWalk(uint32_t fid, uint32_t newfid,
                                   const std::vector<std::string>& names) {
  Qid qid{};
  if (names.empty()) {
    P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TcloneMsg(fid, newfid)));
    (void)r;
    return qid;
  }
  // First element rides the clwalk; the rest are plain walks on newfid.
  auto first = Rpc(TclwalkMsg(fid, newfid, names[0]));
  if (!first.ok()) {
    return first.error();
  }
  qid = first->qid;
  for (size_t i = 1; i < names.size(); i++) {
    auto r = Rpc(TwalkMsg(newfid, names[i]));
    if (!r.ok()) {
      (void)Clunk(newfid);
      return r.error();
    }
    qid = r->qid;
  }
  return qid;
}

Result<Qid> NinepClient::Open(uint32_t fid, uint8_t mode) {
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TopenMsg(fid, mode)));
  return r.qid;
}

Result<Qid> NinepClient::Create(uint32_t fid, const std::string& name, uint32_t perm,
                                uint8_t mode) {
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TcreateMsg(fid, name, perm, mode)));
  return r.qid;
}

Result<Bytes> NinepClient::Read(uint32_t fid, uint64_t offset, uint32_t count) {
  if (count > kMaxData) {
    count = kMaxData;
  }
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TreadMsg(fid, offset, count)));
  // The server is outside the program: an Rread longer than its Tread asked
  // for would overrun the reader's buffer.
  if (r.data.size() > count) {
    return Error(StrFormat("9p read reply too long: %zu bytes for %u", r.data.size(), count));
  }
  return r.data;
}

Result<uint32_t> NinepClient::Write(uint32_t fid, uint64_t offset, const Bytes& data) {
  if (data.size() > kMaxData) {
    return Error("9p write too long");
  }
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TwriteMsg(fid, offset, data)));
  return r.count;
}

Status NinepClient::Clunk(uint32_t fid) {
  auto r = Rpc(TclunkMsg(fid));
  if (!r.ok()) {
    return r.error();
  }
  return Status::Ok();
}

Status NinepClient::Remove(uint32_t fid) {
  auto r = Rpc(TremoveMsg(fid));
  if (!r.ok()) {
    return r.error();
  }
  return Status::Ok();
}

Result<Dir> NinepClient::Stat(uint32_t fid) {
  P9_ASSIGN_OR_RETURN(Fcall r, Rpc(TstatMsg(fid)));
  return r.stat;
}

Status NinepClient::Wstat(uint32_t fid, const Dir& d) {
  auto r = Rpc(TwstatMsg(fid, d));
  if (!r.ok()) {
    return r.error();
  }
  return Status::Ok();
}

bool NinepClient::ok() {
  QLockGuard guard(lock_);
  return !dead_;
}

}  // namespace plan9
