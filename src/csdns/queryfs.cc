#include "src/csdns/queryfs.h"

#include "src/base/thread_annotations.h"
#include "src/task/qlock.h"

namespace plan9 {

class QueryVfs::File : public Vnode {
 public:
  explicit File(const QueryVfs* fs) : fs_(fs) {}

  Qid qid() override { return fs_->file_.qid; }
  Result<Dir> Stat() override { return fs_->file_; }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    return Error(kErrNotDir);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    QLockGuard guard(lock_);
    if (offset == 0) {
      next_ = 0;
    }
    if (!error_.empty()) {
      return Error(error_);
    }
    if (next_ >= lines_.size()) {
      return Bytes{};
    }
    // One answer line per read, cut to the count asked for.
    return ToBytes(lines_[next_++].substr(0, count));
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    auto result = fs_->query_(ToString(data));
    QLockGuard guard(lock_);
    next_ = 0;
    lines_.clear();
    error_.clear();
    if (!result.ok()) {
      error_ = result.error().message();
      return Error(error_);
    }
    lines_ = result.take();
    return static_cast<uint32_t>(data.size());
  }

 private:
  const QueryVfs* fs_;
  QLock lock_{"csdns.query"};
  std::vector<std::string> lines_ GUARDED_BY(lock_);
  size_t next_ GUARDED_BY(lock_) = 0;
  std::string error_ GUARDED_BY(lock_);
};

class QueryVfs::Root : public Vnode, public std::enable_shared_from_this<Root> {
 public:
  explicit Root(const QueryVfs* fs) : fs_(fs) {}

  Qid qid() override { return fs_->root_.qid; }
  Result<Dir> Stat() override { return fs_->root_; }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    if (name == "." || name == "..") {
      return std::shared_ptr<Vnode>(shared_from_this());
    }
    if (name == fs_->file_.name) {
      return std::shared_ptr<Vnode>(std::make_shared<File>(fs_));
    }
    return Error(kErrNotExist);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    return PackDirEntries({fs_->file_}, offset, count);
  }

 private:
  const QueryVfs* fs_;
};

QueryVfs::QueryVfs(std::string name, uint32_t root_path, uint32_t file_path,
                   QueryFn query)
    : query_(std::move(query)) {
  root_.name = name;
  root_.qid = Qid{root_path | kQidDirBit, 0};
  root_.mode = kDmDir | 0555;
  file_.name = std::move(name);
  file_.qid = Qid{file_path, 0};
  file_.mode = 0666;
  file_.type = 'x';
}

Result<std::shared_ptr<Vnode>> QueryVfs::Attach(const std::string& uname,
                                                const std::string& aname) {
  return std::shared_ptr<Vnode>(std::make_shared<Root>(this));
}

}  // namespace plan9
