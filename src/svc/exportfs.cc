#include "src/svc/exportfs.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/dial/dial.h"
#include "src/ninep/client.h"
#include "src/ns/namespace.h"
#include "src/obs/context.h"
#include "src/svc/listen.h"
#include "src/task/rendez.h"

namespace plan9 {
namespace {

// A vnode naming a path inside the exported name space.  Walks re-resolve
// through the Namespace so mount points and unions behave exactly as they
// do locally.
class ExportVnode : public Vnode {
 public:
  ExportVnode(std::shared_ptr<Proc> proc, std::string root, std::string path,
              ChanPtr chan)
      : proc_(std::move(proc)),
        root_(std::move(root)),
        path_(std::move(path)),
        chan_(std::move(chan)) {}

  ~ExportVnode() override {
    if (opened_) {
      chan_->node->Close(open_mode_);
    }
  }

  Qid qid() override { return Fold(chan_->qid); }

  Result<Dir> Stat() override {
    P9_ASSIGN_OR_RETURN(Dir d, chan_->node->Stat());
    d.qid = Fold(d.qid);
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    std::string target = name == ".."
                             ? CleanName(path_ + "/..")
                             : CleanName(path_ + "/" + name);
    // ".." never escapes the exported root.
    if (!HasPrefix(target + "/", root_ == "/" ? "/" : root_ + "/")) {
      target = root_;
    }
    auto chan = proc_->ns()->Resolve(target);
    if (!chan.ok()) {
      return chan.error();
    }
    return std::shared_ptr<Vnode>(
        std::make_shared<ExportVnode>(proc_, root_, target, *chan));
  }

  Status Open(uint8_t mode, const std::string& user) override {
    if (chan_->IsDir() && !chan_->union_stack.empty()) {
      // Union directory: materialize merged entries now (same rule as the
      // local fd layer).
      auto entries = ReadDirChan(chan_);
      if (!entries.ok()) {
        return entries.error();
      }
      dir_image_ = std::make_shared<Bytes>();
      for (auto& d : *entries) {
        d.qid = Fold(d.qid);
        d.Pack(dir_image_.get());
      }
      return Status::Ok();
    }
    P9_RETURN_IF_ERROR(chan_->node->Open(mode, user));
    opened_ = true;
    open_mode_ = mode;
    return Status::Ok();
  }

  Result<std::shared_ptr<Vnode>> Create(const std::string& name, uint32_t perm,
                                        uint8_t mode, const std::string& user) override {
    auto chan = proc_->ns()->Create(CleanName(path_ + "/" + name), perm, mode, user);
    if (!chan.ok()) {
      return chan.error();
    }
    auto node = std::make_shared<ExportVnode>(proc_, root_,
                                              CleanName(path_ + "/" + name), *chan);
    node->opened_ = true;
    node->open_mode_ = mode;
    return std::shared_ptr<Vnode>(node);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    if (dir_image_ != nullptr) {
      if (offset >= dir_image_->size()) {
        return Bytes{};
      }
      size_t n = std::min<size_t>(count, dir_image_->size() - offset);
      return Bytes(dir_image_->begin() + static_cast<long>(offset),
                   dir_image_->begin() + static_cast<long>(offset + n));
    }
    P9_ASSIGN_OR_RETURN(Bytes data, chan_->node->Read(offset, count));
    if (!chan_->IsDir()) {
      return data;
    }
    // A plain directory's records, each with its qid folded.
    Bytes folded;
    ByteReader r(data);
    while (r.remaining() >= kDirLen) {
      P9_ASSIGN_OR_RETURN(Dir d, Dir::Unpack(&r));
      d.qid = Fold(d.qid);
      d.Pack(&folded);
    }
    return folded;
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    return chan_->node->Write(offset, data);
  }

  Status Remove() override { return chan_->node->Remove(); }
  Status Wstat(const Dir& d) override { return chan_->node->Wstat(d); }

  void Close(uint8_t mode) override {
    if (opened_) {
      chan_->node->Close(mode);
      opened_ = false;
    }
  }

 private:
  // Fold (dev_id, qid) into an export-local qid path, preserving the
  // directory bit.  Different servers may reuse qid paths; the relay must
  // present a single consistent space, so every qid it serves comes through
  // here: Stat, qid() and each directory record.
  Qid Fold(Qid q) const {
    uint64_t h = chan_->dev_id * 0x9e3779b97f4a7c15ULL ^ (q.path & ~kQidDirBit);
    h ^= h >> 33;
    q.path = (static_cast<uint32_t>(h) & ~kQidDirBit) | (q.path & kQidDirBit);
    return q;
  }

  std::shared_ptr<Proc> proc_;
  std::string root_;
  std::string path_;
  ChanPtr chan_;
  bool opened_ = false;
  uint8_t open_mode_ = 0;
  std::shared_ptr<Bytes> dir_image_;
};

}  // namespace

ExportVfs::ExportVfs(std::shared_ptr<Proc> proc, std::string root_path)
    : proc_(std::move(proc)), root_path_(CleanName(root_path)) {}

Result<std::shared_ptr<Vnode>> ExportVfs::Attach(const std::string& uname,
                                                 const std::string& aname) {
  // aname may narrow the export below root_path_.
  std::string path = aname.empty() ? root_path_ : CleanName(root_path_ + "/" + aname);
  auto chan = proc_->ns()->Resolve(path);
  if (!chan.ok()) {
    return chan.error();
  }
  return std::shared_ptr<Vnode>(std::make_shared<ExportVnode>(proc_, path, path, *chan));
}

Result<std::unique_ptr<Service>> StartExportfs(std::shared_ptr<Proc> proc,
                                               const std::string& addr) {
  return Serve(
      proc, addr,
      [](Proc* p, int dfd, const std::string& ldir) {
        // The transport preserves delimiters iff the network does.
        bool delimited = DialPathDelimited(ldir);
        auto transport = p->TransportForFd(dfd, delimited);
        if (transport == nullptr) {
          (void)p->Close(dfd);
          return;
        }
        // Initial protocol: first message = root of the exported tree.
        auto root = transport->ReadMsg();
        if (!root.ok() || root->empty()) {
          (void)p->Close(dfd);
          return;
        }
        // exportfs serves in the caller's name-space context; a private
        // proc sharing the node's namespace stands in for "the profile of
        // the user requesting the service".
        auto serve_proc = std::make_shared<Proc>(p->ns_ref(), p->user(), p->obs());
        ExportVfs vfs(serve_proc, ToString(*root));
        NinepServer server(&vfs, std::move(transport), "exportfs", p->obs());
        server.Wait();  // until the importer hangs up
        (void)p->Close(dfd);
      },
      "exportfs");
}

namespace {

// Convenience beyond the original tool: materialize a missing mount point
// (the common /n/<machine> case).
Status MakeMountPoint(Proc* proc, const std::string& local_mount) MAY_BLOCK {
  if (proc->ns()->Resolve(local_mount).ok()) {
    return Status::Ok();
  }
  auto made = proc->ns()->Create(local_mount, kDmDir | 0775, kORead, proc->user());
  if (!made.ok()) {
    return made.error();
  }
  return Status::Ok();
}

// Dial the remote exportfs, speak the initial protocol, and wrap the
// connection in a 9P client: the connect half of Import, which the
// remounter re-runs.
Result<std::shared_ptr<NinepClient>> DialExport(Proc* proc, const std::string& dest,
                                                const std::string& remote_tree,
                                                const ImportOptions& opts) MAY_BLOCK {
  std::string dir;
  P9_ASSIGN_OR_RETURN(int dfd, Dial(proc, dest, opts.redial, &dir));
  auto transport = proc->TransportForFd(dfd, DialPathDelimited(dir));
  if (transport == nullptr) {
    (void)proc->Close(dfd);
    return Error(kErrBadFd);
  }
  Status named = transport->WriteMsg(ToBytes(remote_tree));
  if (!named.ok()) {
    (void)proc->Close(dfd);
    return named.error();
  }
  auto client = std::make_shared<NinepClient>(std::move(transport), proc->obs());
  if (opts.rpc_timeout.count() > 0) {
    client->SetRpcTimeout(opts.rpc_timeout);
  }
  return client;
}

// Shared between the OnDead hook (fires on whichever caller of the client
// saw the failure) and the remounter kproc.
struct RemountState {
  QLock lock{"import.remount"};
  Rendez kick;
  bool dead GUARDED_BY(lock) = false;
  bool stop GUARDED_BY(lock) = false;
  // The session currently mounted (the namespace's sessions_ record does
  // not own it exclusively; this handle lets the remounter dismantle it).
  std::shared_ptr<NinepClient> client GUARDED_BY(lock);
};

// Tear the current session out of the world: unmount, forget the session
// record, and destroy the client — which closes the transport, so the
// remote exportfs sees a hangup and can join its handler.  Never called
// with state->lock held: the unmount clunks the root over a live client,
// and an RPC that sees the connection fail fires the OnDead hook on this
// thread, which takes state->lock.
void Dismantle(Proc* proc, const std::string& local_mount,
               const std::shared_ptr<RemountState>& state) MAY_BLOCK {
  std::shared_ptr<NinepClient> corpse;
  {
    QLockGuard guard(state->lock);
    corpse = std::move(state->client);
  }
  (void)proc->Unmount(local_mount);
  if (corpse != nullptr) {
    proc->DropSession(corpse);
    corpse.reset();
  }
}

}  // namespace

Status Import(Proc* proc, const std::string& dest, const std::string& remote_tree,
              const std::string& local_mount, int flags) {
  P9_RETURN_IF_ERROR(MakeMountPoint(proc, local_mount));
  P9_ASSIGN_OR_RETURN(auto client, DialExport(proc, dest, remote_tree, ImportOptions{}));
  // The data fd stays open underneath the transport; the fd table entry is
  // no longer needed ("the import command ... exits").
  return proc->MountClient(client, local_mount, flags);
}

Result<std::unique_ptr<Service>> ImportManaged(Proc* proc, const std::string& dest,
                                               const std::string& remote_tree,
                                               const std::string& local_mount,
                                               ImportOptions opts) {
  P9_RETURN_IF_ERROR(MakeMountPoint(proc, local_mount));
  auto state = std::make_shared<RemountState>();
  auto arm = [state](const std::shared_ptr<NinepClient>& client) {
    client->OnDead([state](const std::string&) {
      QLockGuard guard(state->lock);
      state->dead = true;
      state->kick.Wakeup();
    });
  };

  P9_ASSIGN_OR_RETURN(auto client, DialExport(proc, dest, remote_tree, opts));
  arm(client);
  P9_RETURN_IF_ERROR(proc->MountClient(client, local_mount, opts.flags));
  {
    QLockGuard guard(state->lock);
    state->client = client;
  }

  auto svc = std::make_unique<Service>("import " + local_mount);
  svc->OnStop([state]() {
    QLockGuard guard(state->lock);
    state->stop = true;
    state->kick.Wakeup();
  });
  svc->Spawn([proc, dest, remote_tree, local_mount, opts, state, arm]() {
    obs::Context& ctx = proc->obs();
    bool stopping = false;
    while (!stopping) {
      {
        QLockGuard guard(state->lock);
        state->kick.Sleep(state->lock,
                          [&]() REQUIRES(state->lock) { return state->dead || state->stop; });
        if (state->stop) {
          break;
        }
        state->dead = false;
      }
      // The connection is dead.  Tear it down now rather than after the
      // redial succeeds: in-flight walks fail fast instead of queueing RPCs
      // against a corpse.  The dead client's data fd entry lingers in the
      // proc's table (as plain Import's does); the vnode underneath it was
      // closed by the client's transport, so the conversation recycles.
      Dismantle(proc, local_mount, state);
      P9_TRACE(ctx.recorder(), obs::TraceKind::kNinep, "import",
               StrFormat("%s dead; redialing %s", local_mount.c_str(), dest.c_str()));
      while (!stopping) {
        ctx.stats().import_redials.Inc();
        auto fresh = DialExport(proc, dest, remote_tree, opts);
        if (fresh.ok()) {
          arm(*fresh);
          Status mounted = proc->MountClient(*fresh, local_mount, opts.flags);
          if (mounted.ok()) {
            {
              QLockGuard guard(state->lock);
              state->client = *fresh;
            }
            ctx.stats().import_remounts.Inc();
            P9_TRACE(ctx.recorder(), obs::TraceKind::kNinep, "import",
                     StrFormat("%s remounted from %s", local_mount.c_str(), dest.c_str()));
            break;
          }
        }
        QLockGuard guard(state->lock);
        if (state->kick.SleepFor(state->lock, std::chrono::milliseconds(100),
                                 [&]() REQUIRES(state->lock) { return state->stop; })) {
          stopping = true;
        }
      }
    }
    // Dismantle the import on the way out, so a graceful shutdown of the
    // exporting node cannot deadlock waiting for a mount that would only
    // die with the whole name space.
    Dismantle(proc, local_mount, state);
  });
  return svc;
}

}  // namespace plan9
