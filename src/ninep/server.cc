#include "src/ninep/server.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/timers.h"

namespace plan9 {

Result<Bytes> PackDirEntries(const std::vector<Dir>& entries, uint64_t offset,
                             uint32_t count) {
  // 9P1 semantics: directory reads must be aligned to whole stat records.
  if (offset % kDirLen != 0 || count % kDirLen != 0) {
    return Error("i/o count not a multiple of directory record");
  }
  size_t first = offset / kDirLen;
  size_t n = count / kDirLen;
  Bytes out;
  for (size_t i = first; i < entries.size() && i - first < n; i++) {
    entries[i].Pack(&out);
  }
  return out;
}

NinepServer::NinepServer(Vfs* vfs, std::unique_ptr<MsgTransport> transport,
                         std::string name, obs::Context& obs)
    : vfs_(vfs), transport_(std::move(transport)), obs_(obs) {
  for (int i = 0; i < kWorkers; i++) {
    workers_.emplace_back(StrFormat("%s.w%d", name.c_str(), i), [this] { Worker(); });
  }
}

NinepServer::~NinepServer() { Shutdown(); }

void NinepServer::Shutdown() {
  {
    QLockGuard guard(lock_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  transport_->Close();  // unblocks the reader
  role_.Wakeup();
  Wait();
}

void NinepServer::Wait() {
  for (auto& w : workers_) {
    w.Join();
  }
}

void NinepServer::Worker() {
  for (;;) {
    {
      QLockGuard guard(lock_);
      role_.Sleep(lock_, [&]() REQUIRES(lock_) { return stopping_ || !reading_; });
      if (stopping_) {
        return;
      }
      reading_ = true;
    }
    // Holding the reader role: run each request read, then read the next,
    // until one is about to block and its hook hands the role on.
    for (;;) {
      auto req = ReadRequest();
      if (!req) {
        return;
      }
      BlockHook hook([](void* server) { static_cast<NinepServer*>(server)->HandOff(); },
                     this);
      Dispatch(std::move(*req));
      if (hook.fired()) {
        break;
      }
    }
  }
}

void NinepServer::HandOff() {
  {
    QLockGuard guard(lock_);
    reading_ = false;
  }
  // Any idle worker can read next; waking one keeps the others asleep.
  role_.WakeOne();
}

std::optional<Fcall> NinepServer::ReadRequest() {
  for (;;) {
    auto raw = transport_->ReadMsg();
    if (!raw.ok() || raw->empty()) {
      break;  // EOF or dead transport
    }
    auto req = Fcall::Unpack(*raw);
    if (!req.ok()) {
      P9_LOG(kWarn) << "9p server: " << req.error().message();
      continue;
    }
    if (!req->IsT()) {
      continue;  // stray reply; ignore
    }
    QLockGuard guard(lock_);
    if (stopping_) {
      break;  // after Shutdown, requests still queued are not run
    }
    // Recorded before the next request is read, so a Tflush naming this
    // tag always finds it.
    outstanding_.insert(req->tag);
    return req.take();
  }
  {
    QLockGuard guard(lock_);
    stopping_ = true;
    reading_ = false;
  }
  role_.Wakeup();  // every idle worker exits
  return std::nullopt;
}

void NinepServer::Reply(const Fcall& reply) {
  {
    QLockGuard guard(lock_);
    outstanding_.erase(reply.tag);
    if (flushed_.erase(reply.tag) > 0) {
      return;  // a Tflush asked us to drop this reply
    }
  }
  auto packed = reply.Pack();
  if (!packed.ok()) {
    P9_LOG(kWarn) << "9p server pack: " << packed.error().message();
    return;
  }
  // The worker delivers its reply's zero-delay frames itself once the write
  // lock is dropped: opened first, the scope closes last.
  TimerWheel::RunHere deliver(TimerWheel::Default());
  QLockGuard guard(write_lock_);
  (void)transport_->WriteMsg(std::move(*packed));
}

Result<NinepServer::FidState> NinepServer::Fid(uint32_t fid, bool drop) {
  QLockGuard guard(lock_);
  auto it = fids_.find(fid);
  if (it == fids_.end()) {
    return Error("unknown fid");
  }
  FidState state = it->second;
  if (drop) {
    fids_.erase(it);
  }
  return state;
}

Status NinepServer::NewFid(uint32_t fid, const FidState* state) {
  QLockGuard guard(lock_);
  if (fids_.count(fid) != 0) {
    return Error("fid in use");
  }
  if (state != nullptr) {
    fids_[fid] = *state;
  }
  return Status::Ok();
}

void NinepServer::SetFid(uint32_t fid, FidState state) {
  QLockGuard guard(lock_);
  fids_[fid] = std::move(state);
}

void NinepServer::Dispatch(Fcall req) {
  obs_.stats().rpcs_served.Inc();
  // Adopt the context that rode in on the request's trailer: everything the
  // handler does downstream on this worker thread (exportfs relays included)
  // becomes part of the caller's trace, so re-exported mounts carry context
  // through multi-hop import chains.  The handler itself is a span.
  obs::SpanAdoption adopt(req.trace);
  obs::ScopedSpan span(FcallSpanOp(req.type, /*server=*/true), obs_);
  Fcall reply;
  reply.type = static_cast<FcallType>(static_cast<uint8_t>(req.type) + 1);
  reply.tag = req.tag;
  reply.fid = req.fid;

  // The request's work.  Vnode calls run with lock_ dropped; a failure is
  // answered with the one Rerror below.
  auto handle = [&]() -> Status {
    // Every request from Tclone on names a fid the client holds; clunk and
    // remove take it out of the table as they look it up.
    FidState fs;
    if (req.type >= FcallType::kTclone) {
      bool drop = req.type == FcallType::kTclunk || req.type == FcallType::kTremove;
      P9_ASSIGN_OR_RETURN(fs, Fid(req.fid, drop));
    }
    switch (req.type) {
      case FcallType::kTnop:
        return Status::Ok();
      case FcallType::kTsession:
        // Auth is external to 9P (§2.1); echo a null challenge.
        reply.chal = Bytes(kChalLen, 0);
        reply.authid = "none";
        reply.authdom = "plan9net";
        return Status::Ok();
      case FcallType::kTflush: {
        // If the old request is still outstanding, suppress its eventual
        // reply.  (We do not interrupt a blocked operation; see DESIGN.md.)
        QLockGuard guard(lock_);
        if (outstanding_.count(req.oldtag) != 0) {
          flushed_.insert(req.oldtag);
        }
        return Status::Ok();
      }
      case FcallType::kTattach: {
        P9_ASSIGN_OR_RETURN(fs.node, vfs_->Attach(req.uname, req.aname));
        fs.user = req.uname;
        P9_RETURN_IF_ERROR(NewFid(req.fid, &fs));
        reply.qid = fs.node->qid();
        return Status::Ok();
      }
      case FcallType::kTclone:
        if (fs.open) {
          return Error("cannot clone open fid");
        }
        return NewFid(req.newfid, &fs);
      case FcallType::kTwalk:
      case FcallType::kTclwalk: {
        uint32_t target = req.fid;
        if (req.type == FcallType::kTclwalk) {
          target = req.newfid;
          P9_RETURN_IF_ERROR(NewFid(target, nullptr));
        }
        P9_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> walked, fs.node->Walk(req.name));
        SetFid(target, FidState{walked, fs.user, false, 0});
        reply.qid = walked->qid();
        return Status::Ok();
      }
      case FcallType::kTopen:
        P9_RETURN_IF_ERROR(fs.node->Open(req.mode, fs.user));
        SetFid(req.fid, FidState{fs.node, fs.user, true, req.mode});
        reply.qid = fs.node->qid();
        return Status::Ok();
      case FcallType::kTcreate: {
        P9_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> created,
                            fs.node->Create(req.name, req.perm, req.mode, fs.user));
        SetFid(req.fid, FidState{created, fs.user, true, req.mode});
        reply.qid = created->qid();
        return Status::Ok();
      }
      case FcallType::kTread: {
        if (!fs.open) {
          return Error("fid not open");
        }
        P9_ASSIGN_OR_RETURN(reply.data,
                            fs.node->Read(req.offset, std::min(req.count, kMaxData)));
        return Status::Ok();
      }
      case FcallType::kTwrite: {
        if (!fs.open) {
          return Error("fid not open");
        }
        P9_ASSIGN_OR_RETURN(reply.count, fs.node->Write(req.offset, req.data));
        return Status::Ok();
      }
      case FcallType::kTclunk:
      case FcallType::kTremove:
        if (fs.open) {
          fs.node->Close(fs.open_mode);
        }
        return req.type == FcallType::kTremove ? fs.node->Remove() : Status::Ok();
      case FcallType::kTstat: {
        P9_ASSIGN_OR_RETURN(reply.stat, fs.node->Stat());
        return Status::Ok();
      }
      case FcallType::kTwstat:
        return fs.node->Wstat(req.stat);
      default:
        return Error("illegal 9p message");
    }
  };
  Status done = handle();
  if (!done.ok()) {
    reply = RerrorMsg(req.tag, done.error().message());
  }
  Reply(reply);
}

}  // namespace plan9
