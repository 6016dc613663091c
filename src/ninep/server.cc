#include "src/ninep/server.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/obs/metrics.h"

namespace plan9 {
namespace {
// Requests served, across every server in the process (ninep.srv.rpcs).
obs::Counter& ServedCounter() {
  static obs::Counter* c =
      &obs::MetricsRegistry::Default().CounterNamed("ninep.srv.rpcs");
  return *c;
}

// Span op name per request type (DESIGN.md §12 grammar: "9p.server.<op>").
const char* ServerSpanOp(FcallType t) {
  switch (t) {
    case FcallType::kTnop: return "9p.server.nop";
    case FcallType::kTsession: return "9p.server.session";
    case FcallType::kTflush: return "9p.server.flush";
    case FcallType::kTattach: return "9p.server.attach";
    case FcallType::kTclone: return "9p.server.clone";
    case FcallType::kTwalk: return "9p.server.walk";
    case FcallType::kTclwalk: return "9p.server.clwalk";
    case FcallType::kTopen: return "9p.server.open";
    case FcallType::kTcreate: return "9p.server.create";
    case FcallType::kTread: return "9p.server.read";
    case FcallType::kTwrite: return "9p.server.write";
    case FcallType::kTclunk: return "9p.server.clunk";
    case FcallType::kTremove: return "9p.server.remove";
    case FcallType::kTstat: return "9p.server.stat";
    case FcallType::kTwstat: return "9p.server.wstat";
    default: return "9p.server.other";
  }
}
}  // namespace

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
                         std::string name, std::string host)
    : vfs_(vfs), transport_(std::move(transport)), host_(std::move(host)) {
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
  while (auto req = Lead()) {
    Dispatch(std::move(*req));
  }
}

std::optional<Fcall> NinepServer::Lead() {
  {
    QLockGuard guard(lock_);
    role_.Sleep(lock_, [&]() REQUIRES(lock_) { return stopping_ || !reading_; });
    if (stopping_) {
      return std::nullopt;
    }
    reading_ = true;
  }
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
    {
      QLockGuard guard(lock_);
      // Recorded before the next request is read, so a Tflush naming this
      // tag always finds it.
      outstanding_.insert(req->tag);
      reading_ = false;
    }
    // Any idle worker can read next; waking one keeps the others asleep.
    role_.WakeOne();
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
  QLockGuard guard(write_lock_);
  (void)transport_->WriteMsg(std::move(*packed));
}

void NinepServer::ReplyError(uint16_t tag, const std::string& ename) {
  Reply(RerrorMsg(tag, ename));
}

Result<NinepServer::FidState*> NinepServer::GetFidLocked(uint32_t fid) {
  auto it = fids_.find(fid);
  if (it == fids_.end()) {
    return Error("unknown fid");
  }
  return &it->second;
}

void NinepServer::Dispatch(Fcall req) {
  ServedCounter().Inc();
  // Adopt the context that rode in on the request's trailer: everything the
  // handler does downstream on this worker thread (exportfs relays included)
  // becomes part of the caller's trace, so re-exported mounts carry context
  // through multi-hop import chains.  The handler itself is a span.
  obs::SpanAdoption adopt(req.trace);
  obs::ScopedSpan span(ServerSpanOp(req.type), host_);
  Fcall reply;
  reply.type = static_cast<FcallType>(static_cast<uint8_t>(req.type) + 1);
  reply.tag = req.tag;
  reply.fid = req.fid;

  switch (req.type) {
    case FcallType::kTnop:
      Reply(reply);
      return;
    case FcallType::kTsession:
      // Auth is external to 9P (§2.1); echo a null challenge.
      reply.chal = Bytes(kChalLen, 0);
      reply.authid = "none";
      reply.authdom = "plan9net";
      Reply(reply);
      return;
    case FcallType::kTflush: {
      // If the old request is still outstanding, suppress its eventual
      // reply.  (We do not interrupt a blocked operation; see DESIGN.md.)
      QLockGuard guard(lock_);
      if (outstanding_.count(req.oldtag) != 0) {
        flushed_.insert(req.oldtag);
      }
      guard.Unlock();
      Reply(reply);
      return;
    }
    case FcallType::kTattach: {
      auto root = vfs_->Attach(req.uname, req.aname);
      if (!root.ok()) {
        ReplyError(req.tag, root.error().message());
        return;
      }
      {
        QLockGuard guard(lock_);
        if (fids_.count(req.fid) != 0) {
          guard.Unlock();
          ReplyError(req.tag, "fid in use");
          return;
        }
        fids_[req.fid] = FidState{*root, req.uname, false, 0};
      }
      reply.qid = (*root)->qid();
      Reply(reply);
      return;
    }
    case FcallType::kTclone: {
      QLockGuard guard(lock_);
      auto fs = GetFidLocked(req.fid);
      if (!fs.ok()) {
        guard.Unlock();
        ReplyError(req.tag, fs.error().message());
        return;
      }
      if ((*fs)->open) {
        guard.Unlock();
        ReplyError(req.tag, "cannot clone open fid");
        return;
      }
      if (fids_.count(req.newfid) != 0) {
        guard.Unlock();
        ReplyError(req.tag, "fid in use");
        return;
      }
      fids_[req.newfid] = **fs;
      guard.Unlock();
      Reply(reply);
      return;
    }
    case FcallType::kTwalk:
    case FcallType::kTclwalk: {
      std::shared_ptr<Vnode> node;
      std::string user;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
        user = (*fs)->user;
        if (req.type == FcallType::kTclwalk && fids_.count(req.newfid) != 0) {
          guard.Unlock();
          ReplyError(req.tag, "fid in use");
          return;
        }
      }
      auto walked = node->Walk(req.name);
      if (!walked.ok()) {
        ReplyError(req.tag, walked.error().message());
        return;
      }
      {
        QLockGuard guard(lock_);
        uint32_t target = req.type == FcallType::kTclwalk ? req.newfid : req.fid;
        fids_[target] = FidState{*walked, user, false, 0};
      }
      reply.qid = (*walked)->qid();
      Reply(reply);
      return;
    }
    case FcallType::kTopen: {
      std::shared_ptr<Vnode> node;
      std::string user;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
        user = (*fs)->user;
      }
      Status opened = node->Open(req.mode, user);
      if (!opened.ok()) {
        ReplyError(req.tag, opened.error().message());
        return;
      }
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (fs.ok()) {
          (*fs)->open = true;
          (*fs)->open_mode = req.mode;
        }
      }
      reply.qid = node->qid();
      Reply(reply);
      return;
    }
    case FcallType::kTcreate: {
      std::shared_ptr<Vnode> node;
      std::string user;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
        user = (*fs)->user;
      }
      auto created = node->Create(req.name, req.perm, req.mode, user);
      if (!created.ok()) {
        ReplyError(req.tag, created.error().message());
        return;
      }
      {
        QLockGuard guard(lock_);
        fids_[req.fid] = FidState{*created, user, true, req.mode};
      }
      reply.qid = (*created)->qid();
      Reply(reply);
      return;
    }
    case FcallType::kTread: {
      std::shared_ptr<Vnode> node;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok() || !(*fs)->open) {
          guard.Unlock();
          ReplyError(req.tag, fs.ok() ? "fid not open" : fs.error().message());
          return;
        }
        node = (*fs)->node;
      }
      auto data = node->Read(req.offset, std::min(req.count, kMaxData));
      if (!data.ok()) {
        ReplyError(req.tag, data.error().message());
        return;
      }
      reply.data = data.take();
      Reply(reply);
      return;
    }
    case FcallType::kTwrite: {
      std::shared_ptr<Vnode> node;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok() || !(*fs)->open) {
          guard.Unlock();
          ReplyError(req.tag, fs.ok() ? "fid not open" : fs.error().message());
          return;
        }
        node = (*fs)->node;
      }
      auto n = node->Write(req.offset, req.data);
      if (!n.ok()) {
        ReplyError(req.tag, n.error().message());
        return;
      }
      reply.count = *n;
      Reply(reply);
      return;
    }
    case FcallType::kTclunk:
    case FcallType::kTremove: {
      std::shared_ptr<Vnode> node;
      bool was_open = false;
      uint8_t open_mode = 0;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
        was_open = (*fs)->open;
        open_mode = (*fs)->open_mode;
        fids_.erase(req.fid);
      }
      if (was_open) {
        node->Close(open_mode);
      }
      if (req.type == FcallType::kTremove) {
        Status removed = node->Remove();
        if (!removed.ok()) {
          ReplyError(req.tag, removed.error().message());
          return;
        }
      }
      Reply(reply);
      return;
    }
    case FcallType::kTstat: {
      std::shared_ptr<Vnode> node;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
      }
      auto d = node->Stat();
      if (!d.ok()) {
        ReplyError(req.tag, d.error().message());
        return;
      }
      reply.stat = d.take();
      Reply(reply);
      return;
    }
    case FcallType::kTwstat: {
      std::shared_ptr<Vnode> node;
      {
        QLockGuard guard(lock_);
        auto fs = GetFidLocked(req.fid);
        if (!fs.ok()) {
          guard.Unlock();
          ReplyError(req.tag, fs.error().message());
          return;
        }
        node = (*fs)->node;
      }
      Status s = node->Wstat(req.stat);
      if (!s.ok()) {
        ReplyError(req.tag, s.error().message());
        return;
      }
      Reply(reply);
      return;
    }
    default:
      ReplyError(req.tag, "illegal 9p message");
      return;
  }
}

}  // namespace plan9
