// Proc — a process context: name space + fd table + user identity.
//
// Plan 9 processes see the system entirely through their name space; the
// "system calls" here (open/read/write/bind/mount/pipe...) are the
// user-facing surface of the kernel layers beneath.  Procs are cheap; fork
// semantics are explicit (share or Fork() the Namespace).
#ifndef SRC_NS_PROC_H_
#define SRC_NS_PROC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/ninep/client.h"
#include "src/ns/chan.h"
#include "src/ns/namespace.h"
#include "src/obs/context.h"
#include "src/task/qlock.h"

namespace plan9 {

// Seek whence.
inline constexpr int kSeekSet = 0;
inline constexpr int kSeekCur = 1;
inline constexpr int kSeekEnd = 2;

class Proc {
 public:
  // `obs` is the context of the node the proc runs on; the libraries it
  // calls (dial, 9P, exportfs, DNS) count and trace there.
  explicit Proc(std::shared_ptr<Namespace> ns, std::string user = "glenda",
                obs::Context& obs = obs::Context::Root());

  Namespace* ns() { return ns_.get(); }
  std::shared_ptr<Namespace> ns_ref() { return ns_; }
  const std::string& user() const { return user_; }
  obs::Context& obs() const { return obs_; }

  // --- file descriptors ------------------------------------------------------
  // Open/Read/Write (and their string/file helpers) are MAY_BLOCK: the path
  // may resolve to a device vnode that waits (a protocol data file, /net
  // listen file, mounted 9P fid).  The fd-table lock is never held across
  // the blocking vnode call.

  Result<int> Open(const std::string& path, uint8_t mode) MAY_BLOCK;
  Result<int> Create(const std::string& path, uint32_t perm, uint8_t mode) MAY_BLOCK;
  Status Close(int fd);
  Result<int> Dup(int fd);

  Result<size_t> Read(int fd, void* buf, size_t n) MAY_BLOCK;
  Result<size_t> Write(int fd, const void* buf, size_t n) MAY_BLOCK;
  Result<uint64_t> Seek(int fd, int64_t offset, int whence);

  // One read() as a string — the idiom for ctl/status/cs files.
  Result<std::string> ReadString(int fd, size_t max = 8192) MAY_BLOCK;
  Status WriteString(int fd, std::string_view s) MAY_BLOCK;

  // Whole file by path (loops reads).
  Result<std::string> ReadFile(const std::string& path) MAY_BLOCK;
  Status WriteFile(const std::string& path, std::string_view contents,
                   bool create = true) MAY_BLOCK;

  Result<Dir> Stat(const std::string& path);
  Status Wstat(const std::string& path, const Dir& d);
  Status Remove(const std::string& path);
  Result<std::vector<Dir>> ReadDir(const std::string& path);

  // --- name space ------------------------------------------------------------

  Status Bind(const std::string& newpath, const std::string& oldpath, int flags);
  Status MountVfs(Vfs* fs, const std::string& oldpath, int flags,
                  const std::string& aname = "");
  Status MountClient(std::shared_ptr<NinepClient> client, const std::string& oldpath,
                     int flags, const std::string& aname = "");
  Status Unmount(const std::string& oldpath);
  // Forget an unmounted client's session record (see Namespace::DropSession).
  void DropSession(const std::shared_ptr<NinepClient>& client);

  // --- pipes -------------------------------------------------------------

  // A full-duplex Plan 9 pipe: two cross-connected streams.  Returns two fds.
  Result<std::pair<int, int>> Pipe();

  // --- plumbing for libraries (dial, exportfs) ---------------------------

  ChanPtr GetChan(int fd);

  // Build a 9P message transport reading/writing through fd.
  std::unique_ptr<MsgTransport> TransportForFd(int fd, bool delimited);

 private:
  struct FdEntry {
    ChanPtr chan;
    uint64_t offset = 0;
    // Union directories are materialized at open ("ls /net" must merge).
    std::shared_ptr<Bytes> dir_image;
  };

  Result<FdEntry*> GetLocked(int fd) REQUIRES(lock_);
  int InstallLocked(FdEntry entry) REQUIRES(lock_);

  std::shared_ptr<Namespace> ns_;
  std::string user_;
  obs::Context& obs_;
  QLock lock_{"proc.fds"};
  std::vector<std::unique_ptr<FdEntry>> fds_ GUARDED_BY(lock_);
};

}  // namespace plan9

#endif  // SRC_NS_PROC_H_
