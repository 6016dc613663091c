// Per-process name spaces (§2.1, §6).
//
// "Each process assembles a view of the system by building a name space
// connecting its resources."  A Namespace is a root plus a mount table;
// bind and mount splice trees (local Vfs instances or remote servers via
// the mount driver) onto names, with union-directory semantics:
//
//   "The import command mounts the remote /net directory after (the -a
//    option) the existing contents of the local /net directory.  The
//    directory contains the union of the local and remote contents of
//    /net.  Local entries supersede remote ones of the same name."
#ifndef SRC_NS_NAMESPACE_H_
#define SRC_NS_NAMESPACE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/ninep/client.h"
#include "src/ninep/ramfs.h"
#include "src/ns/chan.h"
#include "src/task/qlock.h"

namespace plan9 {

// Mount/bind flags, as in Plan 9's bind(2).
inline constexpr int kMRepl = 0;    // replace the mounted-on directory
inline constexpr int kMBefore = 1;  // union, new tree searched first
inline constexpr int kMAfter = 2;   // union, new tree searched last
inline constexpr int kMCreate = 4;  // creates in this union element

class Namespace {
 public:
  // The namespace root is served by `root_fs` (conventionally a RamFs with
  // /net /dev /srv /lib pre-made).  Does not take ownership.
  explicit Namespace(Vfs* root_fs);

  // Resolve an absolute path to a chan (mount translation + union walk
  // applied at every step).  MAY_BLOCK: walking into a mounted 9P tree
  // issues RPCs.  The namespace lock is held only per-step for mount
  // translation, never across a walk, so resolution is not atomic against
  // concurrent binds (as in Plan 9).
  Result<ChanPtr> Resolve(const std::string& path) MAY_BLOCK;

  // Resolve the directory containing `path`, returning the final element
  // name via `last` (for create/remove).
  Result<ChanPtr> ResolveParent(const std::string& path, std::string* last) MAY_BLOCK;

  // bind(new, old, flags): make `newpath`'s tree visible at `oldpath`.
  Status Bind(const std::string& newpath, const std::string& oldpath,
              int flags) MAY_BLOCK;

  // Mount a local Vfs (kernel device driver or in-process server) at old.
  Status MountVfs(Vfs* fs, const std::string& oldpath, int flags,
                  const std::string& aname = "") MAY_BLOCK;

  // Mount a remote server via the mount driver (§2.1).
  Status MountClient(std::shared_ptr<NinepClient> client, const std::string& oldpath,
                     int flags, const std::string& aname = "",
                     const std::string& uname = "none") MAY_BLOCK;

  // Remove every mount at oldpath.
  Status Unmount(const std::string& oldpath) MAY_BLOCK;

  // Forget a session recorded by MountClient, so an unmounted client can
  // actually be destroyed (closing its transport and hanging up on the
  // server).  The client stays alive while any mount entry or resolved chan
  // still references it; dropping the last reference joins its reader.
  void DropSession(const std::shared_ptr<NinepClient>& client) MAY_BLOCK;

  // Deep copy (rfork RFNAMEG-style: child namespaces evolve independently).
  std::shared_ptr<Namespace> Fork();

  // Create a file/dir at path inside the resolved (possibly union) parent,
  // honouring kMCreate.
  Result<ChanPtr> Create(const std::string& path, uint32_t perm, uint8_t mode,
                         const std::string& user) MAY_BLOCK;

 private:
  struct MountEntry {
    ChanPtr to;
    bool create = false;
  };
  struct MountKey {
    uint64_t dev_id;
    uint32_t qid_path;
    bool operator<(const MountKey& o) const {
      return dev_id != o.dev_id ? dev_id < o.dev_id : qid_path < o.qid_path;
    }
  };

  // If c names a mount point, return it with union_stack populated.
  ChanPtr TranslateLocked(ChanPtr c) REQUIRES(lock_);
  // A mounted tree's root, as a chan on a device of its own.
  ChanPtr NewDevice(std::shared_ptr<Vnode> root, const std::string& path);
  // The one mount-table insertion under Bind, MountVfs and MountClient:
  // `from` joins the union at `oldpath` as `flags` say, and a mounted 9P
  // `session`, if any, is kept alive with it.
  Status Mount(ChanPtr from, const std::string& oldpath, int flags,
               std::shared_ptr<NinepClient> session) MAY_BLOCK;
  Result<ChanPtr> WalkOne(const ChanPtr& from, const std::string& elem) MAY_BLOCK;

  QLock lock_{"namespace"};
  Vfs* root_fs_;  // set in the constructor, immutable after
  ChanPtr root_ GUARDED_BY(lock_);
  std::map<MountKey, std::vector<MountEntry>> mounts_ GUARDED_BY(lock_);
  // Remote sessions kept alive by the namespace that mounted them.
  std::vector<std::shared_ptr<NinepClient>> sessions_ GUARDED_BY(lock_);
  uint64_t next_dev_id_ GUARDED_BY(lock_) = 1;
};

// Read a whole directory through a chan, merging union elements: first
// occurrence of a name wins.
Result<std::vector<Dir>> ReadDirChan(const ChanPtr& chan);

}  // namespace plan9

#endif  // SRC_NS_NAMESPACE_H_
