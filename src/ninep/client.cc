#include "src/ninep/client.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/timers.h"

namespace plan9 {

NinepClient::NinepClient(std::unique_ptr<MsgTransport> transport, obs::Context& obs)
    : transport_(std::move(transport)),
      obs_(obs),
      reader_("9p.client.reader", [this] { ReaderLoop(); }) {}

NinepClient::~NinepClient() {
  transport_->Close();
  reader_.Join();
}

void NinepClient::ReaderLoop() {
  for (;;) {
    auto raw = transport_->ReadMsg();
    if (!raw.ok() || raw->empty()) {
      std::function<void(const std::string&)> hook;
      std::string why = raw.ok() ? std::string(kErrHungup) : raw.error().message();
      {
        QLockGuard guard(lock_);
        if (FailAllLocked(why)) {
          hook = on_dead_;
        }
      }
      if (hook) {
        hook(why);
      }
      return;
    }
    auto reply = Fcall::Unpack(*raw);
    if (!reply.ok()) {
      P9_LOG(kWarn) << "9p client: " << reply.error().message();
      continue;
    }
    std::shared_ptr<Pending> waiter;
    std::shared_ptr<Pending> chained;
    {
      QLockGuard guard(lock_);
      auto it = pending_.find(reply->tag);
      if (it != pending_.end()) {
        waiter = it->second;
        pending_.erase(it);
        waiter->have_reply = true;
        waiter->reply = reply.take();
        chained = waiter->also_wake;
      }
    }
    if (waiter != nullptr) {
      waiter->done.Wakeup();
      if (chained != nullptr) {
        chained->done.Wakeup();
      }
    } else {
      // Replies for flushed tags whose Rflush already won land here.
      P9_LOG(kDebug) << "9p client: reply for unknown tag";
    }
  }
}

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

bool NinepClient::FailAllLocked(const std::string& why) {
  if (dead_) {
    return false;
  }
  dead_ = true;
  death_reason_ = why;
  stats_.failures.Inc();
  for (auto& [tag, waiter] : pending_) {
    waiter->have_reply = true;
    waiter->reply = RerrorMsg(tag, why);
    waiter->done.Wakeup();
  }
  pending_.clear();
  return true;
}

Result<Fcall> NinepClient::FlushAndReap(uint16_t oldtag, std::shared_ptr<Pending> waiter,
                                        std::chrono::milliseconds deadline) {
  // Half of the flush dance runs without the lock (transport writes block);
  // the waiter stays registered in pending_ throughout so a late reply is
  // matched to it, never to a recycled tag.
  auto flushw = std::make_shared<Pending>();
  uint16_t flush_tag;
  {
    QLockGuard guard(lock_);
    if (waiter->have_reply) {
      return waiter->reply;  // lost the race: the reply just landed
    }
    stats_.timeouts.Inc();
    flush_tag = AllocTagLocked();
    pending_[flush_tag] = flushw;
    waiter->also_wake = flushw;
  }
  Fcall tf = TflushMsg(oldtag);
  tf.tag = flush_tag;
  auto packed = tf.Pack();
  Status sent;
  {
    TimerWheel::RunHere deliver(TimerWheel::Default());  // as in Rpc
    sent = packed.ok() ? transport_->WriteMsg(std::move(*packed)) : packed.error();
  }
  std::function<void(const std::string&)> hook;
  std::string hook_why;
  Result<Fcall> out = Error(std::string(kErrTimedOut));
  {
    QLockGuard guard(lock_);
    if (!sent.ok()) {
      if (FailAllLocked(StrFormat("9p flush failed: %s", sent.error().message().c_str()))) {
        hook = on_dead_;
        hook_why = death_reason_;
      }
    } else {
      stats_.flushes_sent.Inc();
      // Wait for whichever the server sends first: the old reply (it beat
      // the flush) or the Rflush (the RPC is officially dead).
      (void)flushw->done.SleepFor(lock_, deadline, [&]() REQUIRES(lock_) {
        return flushw->have_reply || waiter->have_reply;
      });
    }
    waiter->also_wake = nullptr;
    if (waiter->have_reply) {
      // The original reply won (or FailAll stamped an error into it).  The
      // orphan Rflush, if still owed, is consumed by ReaderLoop against the
      // still-registered flush tag.
      if (!dead_) {
        stats_.late_replies.Inc();
      }
      out = waiter->reply;
    } else if (flushw->have_reply) {
      // Rflush confirmed: the server will never answer oldtag.  Reap it so
      // the tag can be reused.
      stats_.flushed.Inc();
      pending_.erase(oldtag);
      out = Error(std::string(kErrTimedOut));
    } else {
      // Neither the RPC nor its flush was answered: the connection is gone.
      pending_.erase(oldtag);
      pending_.erase(flush_tag);
      if (FailAllLocked("9p rpc timed out (flush unanswered)")) {
        hook = on_dead_;
        hook_why = death_reason_;
      }
      out = Error(std::string(kErrTimedOut));
    }
  }
  if (hook) {
    hook(hook_why);
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
  auto started = std::chrono::steady_clock::now();
  auto waiter = std::make_shared<Pending>();
  std::chrono::milliseconds deadline{0};
  {
    QLockGuard guard(lock_);
    if (dead_) {
      return Error(death_reason_);
    }
    stats_.rpcs.Inc();
    tx.tag = AllocTagLocked();
    pending_[tx.tag] = waiter;
    deadline = rpc_timeout_;
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
    QLockGuard guard(lock_);
    pending_.erase(tx.tag);
    return sent.error();
  }
  bool timed_out = false;
  {
    QLockGuard guard(lock_);
    if (deadline.count() <= 0) {
      waiter->done.Sleep(lock_, [&]() REQUIRES(lock_) { return waiter->have_reply; });
    } else {
      timed_out = !waiter->done.SleepFor(
          lock_, deadline, [&]() REQUIRES(lock_) { return waiter->have_reply; });
      timed_out = timed_out && !waiter->have_reply;
    }
  }
  Result<Fcall> reply = Error(std::string(kErrTimedOut));
  if (timed_out) {
    reply = FlushAndReap(tx.tag, waiter, deadline);
    if (!reply.ok()) {
      return reply.error();
    }
  } else {
    reply = waiter->reply;
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
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
