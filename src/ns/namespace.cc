#include "src/ns/namespace.h"

#include <algorithm>
#include <set>

#include "src/base/strings.h"
#include "src/ns/mnt.h"

namespace plan9 {

Namespace::Namespace(Vfs* root_fs) : root_fs_(root_fs) {
  auto root = root_fs_->Attach("sys", "");
  // A root that cannot attach is a programming error; fail loudly.
  root_ = Chan::Make(root.take(), next_dev_id_++, "/");
}

ChanPtr Namespace::TranslateLocked(ChanPtr c) {
  auto it = mounts_.find(MountKey{c->dev_id, c->qid.path});
  if (it == mounts_.end()) {
    c->union_stack.clear();
    return c;
  }
  // Keep the original identity (so the chan remains the mount-table key) but
  // attach the union stack for walking and reading.
  c->union_stack.clear();
  for (auto& entry : it->second) {
    c->union_stack.push_back(entry.to);
  }
  return c;
}

Result<ChanPtr> Namespace::WalkOne(const ChanPtr& from, const std::string& elem) {
  if (!from->union_stack.empty()) {
    Error last_err{std::string(kErrNotExist)};
    for (auto& element : from->union_stack) {
      auto walked = element->node->Walk(elem);
      if (walked.ok()) {
        auto c = Chan::Make(walked.take(), element->dev_id, from->path + "/" + elem);
        return c;
      }
      last_err = walked.error();
    }
    return last_err;
  }
  auto walked = from->node->Walk(elem);
  if (!walked.ok()) {
    return walked.error();
  }
  return Chan::Make(walked.take(), from->dev_id, from->path + "/" + elem);
}

Result<ChanPtr> Namespace::Resolve(const std::string& path) {
  std::string clean = CleanName(path);
  if (clean.empty() || clean[0] != '/') {
    return Error(StrFormat("not an absolute path: %s", path.c_str()));
  }
  // The mount-table lock is held only for translation at each step, never
  // across WalkOne: a walk can enter a mounted 9P tree and block in an RPC
  // for a full network round trip (or forever, against a wedged server),
  // and holding the namespace lock there would stall every other namespace
  // operation in the process — the blocking-under-lock class plan9lint and
  // lockcheck::OnBlock both reject.  Resolution is therefore not atomic
  // against concurrent binds, exactly as in Plan 9.
  ChanPtr cur;
  {
    QLockGuard guard(lock_);
    cur = TranslateLocked(root_->CloneUnopened());
  }
  for (auto& elem : GetFields(clean, "/")) {
    auto next = WalkOne(cur, elem);
    if (!next.ok()) {
      return Error(StrFormat("%s: '%s' %s", path.c_str(), elem.c_str(),
                             next.error().message().c_str()));
    }
    ChanPtr translated;
    {
      QLockGuard guard(lock_);
      translated = TranslateLocked(next.take());
    }
    // Assign outside the guard: dropping the previous step's chan can clunk
    // a 9P fid — a blocking RPC that must not run under the namespace lock.
    cur = std::move(translated);
  }
  return cur;
}

Result<ChanPtr> Namespace::ResolveParent(const std::string& path, std::string* last) {
  std::string clean = CleanName(path);
  auto parts = GetFields(clean, "/");
  if (parts.empty()) {
    return Error(kErrBadArg);
  }
  *last = parts.back();
  parts.pop_back();
  return Resolve("/" + Join(parts, "/"));
}

Status Namespace::Bind(const std::string& newpath, const std::string& oldpath,
                       int flags) {
  P9_ASSIGN_OR_RETURN(ChanPtr from, Resolve(newpath));
  return Mount(from->CloneUnopened(), oldpath, flags, nullptr);
}

Status Namespace::MountVfs(Vfs* fs, const std::string& oldpath, int flags,
                           const std::string& aname) {
  P9_ASSIGN_OR_RETURN(auto root, fs->Attach("sys", aname));
  return Mount(NewDevice(std::move(root), oldpath), oldpath, flags, nullptr);
}

Status Namespace::MountClient(std::shared_ptr<NinepClient> client,
                              const std::string& oldpath, int flags,
                              const std::string& aname, const std::string& uname) {
  P9_ASSIGN_OR_RETURN(auto root, MntAttach(client, uname, aname));
  return Mount(NewDevice(std::move(root), oldpath), oldpath, flags, std::move(client));
}

ChanPtr Namespace::NewDevice(std::shared_ptr<Vnode> root, const std::string& path) {
  QLockGuard guard(lock_);
  return Chan::Make(std::move(root), next_dev_id_++, path);
}

Status Namespace::Mount(ChanPtr from, const std::string& oldpath, int flags,
                        std::shared_ptr<NinepClient> session) {
  int how = flags & 3;
  if (how != kMRepl && how != kMBefore && how != kMAfter) {
    return Error(kErrBadArg);
  }
  // Resolution runs unlocked (it may block in a mounted tree); the lock
  // protects only the table mutation below.
  P9_ASSIGN_OR_RETURN(ChanPtr onto, Resolve(oldpath));
  // Entries displaced by kMRepl are destroyed only after the guard drops:
  // their chans can clunk 9P fids (blocking RPCs).
  std::vector<MountEntry> displaced;
  QLockGuard guard(lock_);
  if (session != nullptr) {
    sessions_.push_back(std::move(session));
  }
  auto& stack = mounts_[MountKey{onto->dev_id, onto->qid.path}];
  if (stack.empty() && how != kMRepl) {
    // First union mount: the mounted-on directory itself stays visible.
    stack.push_back(MountEntry{onto->CloneUnopened(), /*create=*/true});
  }
  MountEntry entry{std::move(from), (flags & kMCreate) != 0 || how == kMRepl};
  if (how == kMRepl) {
    displaced.swap(stack);
    stack.push_back(std::move(entry));
  } else if (how == kMBefore) {
    stack.insert(stack.begin(), std::move(entry));
  } else {
    stack.push_back(std::move(entry));
  }
  return Status::Ok();
}

Status Namespace::Unmount(const std::string& oldpath) {
  // Resolve preserves the mounted-on chan's original identity, which is the
  // mount key; runs unlocked like every resolution.
  auto onto = Resolve(oldpath);
  if (!onto.ok()) {
    return onto.error();
  }
  std::vector<MountEntry> dropped;  // destroyed after the guard (fid clunks)
  {
    QLockGuard guard(lock_);
    MountKey key{(*onto)->dev_id, (*onto)->qid.path};
    auto it = mounts_.find(key);
    if (it == mounts_.end()) {
      return Error("not mounted");
    }
    dropped = std::move(it->second);
    mounts_.erase(it);
  }
  return Status::Ok();
}

void Namespace::DropSession(const std::shared_ptr<NinepClient>& client) {
  std::vector<std::shared_ptr<NinepClient>> released;  // destroyed unlocked
  QLockGuard guard(lock_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (*it == client) {
      released.push_back(std::move(*it));
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<Namespace> Namespace::Fork() {
  QLockGuard guard(lock_);
  auto copy = std::make_shared<Namespace>(root_fs_);
  // copy is unshared, but its members are lock-annotated; both locks are the
  // same class, which the lock-order checker treats as unordered.
  QLockGuard copy_guard(copy->lock_);
  copy->mounts_ = mounts_;
  copy->sessions_ = sessions_;
  copy->next_dev_id_ = next_dev_id_;
  // Note: dev_ids are assigned from the same sequence, and chans are shared
  // (immutable once in the table), so keys remain consistent.
  copy->root_ = root_;
  return copy;
}

Result<ChanPtr> Namespace::Create(const std::string& path, uint32_t perm, uint8_t mode,
                                  const std::string& user) {
  std::string name;
  auto parent = ResolveParent(path, &name);
  if (!parent.ok()) {
    return parent.error();
  }
  std::vector<ChanPtr> candidates;
  {
    QLockGuard guard(lock_);
    if (!(*parent)->union_stack.empty()) {
      auto it = mounts_.find(MountKey{(*parent)->dev_id, (*parent)->qid.path});
      if (it != mounts_.end()) {
        for (auto& entry : it->second) {
          if (entry.create) {
            candidates.push_back(entry.to);
          }
        }
      }
      if (candidates.empty()) {
        return Error(kErrPerm);
      }
    } else {
      candidates.push_back(*parent);
    }
  }
  // node->Create can block in a mounted tree (9P RPC); lock not held.
  Error last{std::string(kErrPerm)};
  for (auto& cand : candidates) {
    auto made = cand->node->Create(name, perm, mode, user);
    if (made.ok()) {
      auto c = Chan::Make(made.take(), cand->dev_id, CleanName(path));
      c->open = true;
      c->mode = mode;
      return c;
    }
    last = made.error();
  }
  return last;
}

Result<std::vector<Dir>> ReadDirChan(const ChanPtr& chan) {
  std::vector<ChanPtr> sources;
  if (!chan->union_stack.empty()) {
    sources = chan->union_stack;
  } else {
    sources.push_back(chan);
  }
  std::vector<Dir> out;
  std::set<std::string> seen;
  for (auto& src : sources) {
    if (!src->qid.IsDir()) {
      continue;
    }
    // Read through a fresh opened handle: remote (mount-driver) fids must
    // be opened before reading, and we must not disturb src's own state.
    std::shared_ptr<Vnode> reader = src->node;
    bool opened = false;
    if (auto clone = src->node->Walk("."); clone.ok()) {
      reader = clone.take();
      opened = reader->Open(kORead, "none").ok();
    }
    uint64_t offset = 0;
    for (;;) {
      auto chunk = reader->Read(offset, kDirLen * 32);
      if (!chunk.ok()) {
        return chunk.error();
      }
      if (chunk->empty()) {
        break;
      }
      offset += chunk->size();
      ByteReader r(*chunk);
      while (r.remaining() >= kDirLen) {
        auto d = Dir::Unpack(&r);
        if (!d.ok()) {
          return d.error();
        }
        // "Local entries supersede remote ones of the same name" — first
        // union element wins.
        if (seen.insert(d->name).second) {
          out.push_back(d.take());
        }
      }
    }
    if (opened) {
      reader->Close(kORead);
    }
  }
  return out;
}

}  // namespace plan9
