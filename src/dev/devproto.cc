#include "src/dev/devproto.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/sim/chaos.h"

namespace plan9 {
namespace {

// Stamp the caller's active trace context onto the conversation when a ctl
// write sets up the endpoint.  The dial library's "dial.connect" span is the
// one live at this moment, so the conv's captured parent is exactly the hop
// that created it (DESIGN.md §12).
void MaybeCaptureTrace(NetConv* conv, const std::string& msg) {
  if (HasPrefix(msg, "connect") || HasPrefix(msg, "announce")) {
    conv->CaptureTrace(obs::Tracer::Current());
  }
}

// Qid layout: [proto+1 : bits 20..27][conv+1 : bits 8..19][file kind : bits 0..7]
// Root-level observability files use the low qids 2..5 (proto qids start at
// 1<<20, so the space is free).
uint32_t QidRoot() { return 1; }
uint32_t QidObsFile(size_t kind) { return static_cast<uint32_t>(kind + 2); }
uint32_t QidProto(size_t p) { return static_cast<uint32_t>(p + 1) << 20; }
uint32_t QidClone(size_t p) { return QidProto(p) | 1; }
uint32_t QidConv(size_t p, size_t c) { return QidProto(p) | static_cast<uint32_t>(c + 1) << 8; }
uint32_t QidFile(size_t p, size_t c, size_t kind) { return QidConv(p, c) | (kind + 2); }

Result<std::string> SliceText(const std::string& text, uint64_t offset, uint32_t count) {
  if (offset >= text.size()) {
    return std::string();
  }
  return text.substr(offset, count);
}

// A directory read: each child named in `names`, walked and described by its
// own Stat.
Result<Bytes> ListDir(Vnode* dir, const std::vector<std::string>& names,
                      uint64_t offset, uint32_t count) {
  std::vector<Dir> entries;
  for (const auto& name : names) {
    P9_ASSIGN_OR_RETURN(auto child, dir->Walk(name));
    P9_ASSIGN_OR_RETURN(Dir d, child->Stat());
    entries.push_back(std::move(d));
  }
  return PackDirEntries(entries, offset, count);
}

// The /net-level observability files (tentpole): every node exports its
// metrics registry and flight recorder the same way the LANCE driver exports
// its stats file — as text, readable by cat, importable across machines.
//   /net/stats  the node's metrics registry, `key value` per line
//   /net/trace  the node's flight recorder ring, oldest first
//   /net/ctl    writable: the node's trace settings (obs::Context::Ctl)
//   /net/chaos  writable: the chaos engine (sim/chaos.h); reads render the
//               seed, node/medium state and schedule, writes drive it
//               ("crash gnot", "seed 42 8", "run", ...)
constexpr const char* kObsFiles[] = {"stats", "trace", "ctl", "chaos"};
constexpr size_t kObsFileCount = 4;

class ObsFileVnode : public Vnode {
 public:
  ObsFileVnode(obs::Context& obs, size_t kind) : obs_(obs), kind_(kind) {}

  Qid qid() override { return Qid{QidObsFile(kind_), 0}; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = kObsFiles[kind_];
    d.qid = qid();
    d.mode = d.name == "ctl" || d.name == "chaos" ? 0666 : 0444;
    d.type = 'I';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    return Error(kErrNotDir);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    std::string text;
    const std::string name = kObsFiles[kind_];
    if (name == "stats") {
      text = obs_.metrics().RenderText();
    } else if (name == "trace") {
      text = obs_.recorder().RenderText();
    } else if (name == "chaos") {
      ChaosEngine* engine = ChaosEngine::Current();
      text = engine != nullptr ? engine->StatusText() : "no chaos engine\n";
    } else {
      text = obs_.CtlText();
    }
    auto sliced = SliceText(text, offset, count);
    return ToBytes(*sliced);
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    const std::string name = kObsFiles[kind_];
    if (name == "chaos") {
      ChaosEngine* engine = ChaosEngine::Current();
      if (engine == nullptr) {
        return Error("no chaos engine");
      }
      P9_RETURN_IF_ERROR(engine->Ctl(ToString(data)));
      return static_cast<uint32_t>(data.size());
    }
    if (name != "ctl") {
      return Error(kErrPerm);
    }
    P9_RETURN_IF_ERROR(obs_.Ctl(ToString(data)));
    return static_cast<uint32_t>(data.size());
  }

 private:
  obs::Context& obs_;
  size_t kind_;
};

// ---------------------------------------------------------------------------

// A conversation's file, or the protocol's clone file (conv null until it is
// opened, then the reserved conversation's ctl file).
class ConvFileVnode : public Vnode {
 public:
  ConvFileVnode(NetProto* proto, size_t proto_idx, NetConv* conv, size_t file_kind,
                std::string file_name)
      : proto_(proto),
        proto_idx_(proto_idx),
        conv_(conv),
        file_kind_(file_kind),
        file_name_(std::move(file_name)) {}

  ~ConvFileVnode() override { ReleaseRef(); }

  Qid qid() override {
    if (conv_ == nullptr) {
      return Qid{QidClone(proto_idx_), 0};
    }
    return Qid{QidFile(proto_idx_, static_cast<size_t>(conv_->index()), file_kind_), 0};
  }

  Result<Dir> Stat() override {
    Dir d;
    d.name = file_name_;
    if (conv_ != nullptr) {
      d.uid = conv_->owner();
      d.gid = conv_->owner();
    }
    d.qid = qid();
    d.mode = 0666;
    d.type = 'I';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    return Error(kErrNotDir);
  }

  Status Open(uint8_t mode, const std::string& user) override {
    if (file_name_ == "clone") {
      // Opening the clone file reserves a conversation and, as §2.3 has it,
      // returns a file descriptor pointing to its ctl file.  Whoever opens
      // it owns the conversation.
      P9_ASSIGN_OR_RETURN(conv_, proto_->Clone());
      conv_->set_owner(user.empty() ? "network" : user);
      file_name_ = "ctl";
    } else if (file_name_ == "listen") {
      // "If the process opens the listen file it blocks until an incoming
      // call is received. ... the open completes and returns a file
      // descriptor pointing to the ctl file of the new connection."
      auto idx = conv_->Listen();
      if (!idx.ok()) {
        return idx.error();
      }
      NetConv* accepted = proto_->Conv(static_cast<size_t>(*idx));
      if (accepted == nullptr) {
        return Error("listen lost the call");
      }
      conv_ = accepted;
      file_kind_ = 0;  // morph into the new conversation's ctl
      file_name_ = "ctl";
    } else if (file_name_ == "data") {
      // "When the data file is opened the connection is established."
      P9_RETURN_IF_ERROR(conv_->WaitReady());
    }
    conv_->refs.fetch_add(1);
    holds_ref_ = true;
    if (!conv_->owner().empty() && conv_->owner() == "network" && !user.empty()) {
      conv_->set_owner(user);
    }
    return Status::Ok();
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    if (file_name_ == "ctl") {
      auto text = SliceText(StrFormat("%d", conv_->index()), offset, count);
      return ToBytes(*text);
    }
    if (file_name_ == "data") {
      Bytes buf(count);
      auto n = conv_->Read(buf.data(), buf.size());
      if (!n.ok()) {
        return n.error();
      }
      buf.resize(*n);
      return buf;
    }
    auto text = proto_->InfoText(conv_, file_name_);
    if (!text.ok()) {
      return text.error();
    }
    auto sliced = SliceText(*text, offset, count);
    return ToBytes(*sliced);
  }

  Result<uint32_t> Write(uint64_t offset, const Bytes& data) override {
    if (file_name_ == "ctl") {
      const std::string msg = ToString(data);
      MaybeCaptureTrace(conv_, msg);
      P9_RETURN_IF_ERROR(conv_->Ctl(msg));
      return static_cast<uint32_t>(data.size());
    }
    if (file_name_ == "data") {
      auto n = conv_->Write(data.data(), data.size());
      if (!n.ok()) {
        return n.error();
      }
      return static_cast<uint32_t>(*n);
    }
    return Error(kErrPerm);
  }

  void Close(uint8_t mode) override { ReleaseRef(); }

 private:
  void ReleaseRef() {
    if (holds_ref_ && conv_->refs.fetch_sub(1) == 1) {
      // "A connection remains established while any of the files in the
      // connection directory are referenced..."  Last reference: shut down.
      conv_->CloseUser();
    }
    holds_ref_ = false;
  }

  NetProto* proto_;
  size_t proto_idx_;
  NetConv* conv_;
  size_t file_kind_;
  std::string file_name_;
  bool holds_ref_ = false;
};

class ConvDirVnode : public Vnode {
 public:
  ConvDirVnode(NetProto* proto, size_t proto_idx, NetConv* conv,
               std::shared_ptr<Vnode> parent)
      : proto_(proto), proto_idx_(proto_idx), conv_(conv), parent_(std::move(parent)) {}

  Qid qid() override {
    return Qid{QidConv(proto_idx_, static_cast<size_t>(conv_->index())) | kQidDirBit, 0};
  }

  Result<Dir> Stat() override {
    Dir d;
    d.name = StrFormat("%d", conv_->index());
    d.uid = conv_->owner();
    d.gid = conv_->owner();
    d.qid = qid();
    d.mode = kDmDir | 0555;
    d.type = 'I';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    if (name == ".") {
      return std::shared_ptr<Vnode>(
          std::make_shared<ConvDirVnode>(proto_, proto_idx_, conv_, parent_));
    }
    if (name == "..") {
      return parent_;
    }
    auto names = proto_->ConvFileNames();
    for (size_t k = 0; k < names.size(); k++) {
      if (names[k] == name) {
        return std::shared_ptr<Vnode>(
            std::make_shared<ConvFileVnode>(proto_, proto_idx_, conv_, k, name));
      }
    }
    return Error(kErrNotExist);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    return ListDir(this, proto_->ConvFileNames(), offset, count);
  }

 private:
  NetProto* proto_;
  size_t proto_idx_;
  NetConv* conv_;
  std::shared_ptr<Vnode> parent_;
};

class ProtoDirVnode : public Vnode,
                      public std::enable_shared_from_this<ProtoDirVnode> {
 public:
  ProtoDirVnode(NetProto* proto, size_t proto_idx, std::shared_ptr<Vnode> parent)
      : proto_(proto), proto_idx_(proto_idx), parent_(std::move(parent)) {}

  Qid qid() override { return Qid{QidProto(proto_idx_) | kQidDirBit, 0}; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = proto_->name();
    d.qid = qid();
    d.mode = kDmDir | 0555;
    d.type = 'I';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    if (name == ".") {
      return std::shared_ptr<Vnode>(shared_from_this());
    }
    if (name == "..") {
      return parent_ != nullptr ? parent_
                                : std::shared_ptr<Vnode>(shared_from_this());
    }
    if (name == "clone") {
      return std::shared_ptr<Vnode>(
          std::make_shared<ConvFileVnode>(proto_, proto_idx_, nullptr, 0, "clone"));
    }
    auto num = ParseU64(name);
    if (num.has_value()) {
      NetConv* conv = proto_->Conv(*num);
      if (conv != nullptr) {
        return std::shared_ptr<Vnode>(std::make_shared<ConvDirVnode>(
            proto_, proto_idx_, conv, shared_from_this()));
      }
    }
    return Error(kErrNotExist);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    std::vector<std::string> names = {"clone"};
    for (size_t c = 0; c < proto_->ConvCount(); c++) {
      names.push_back(StrFormat("%zu", c));
    }
    return ListDir(this, names, offset, count);
  }

 private:
  NetProto* proto_;
  size_t proto_idx_;
  std::shared_ptr<Vnode> parent_;
};

class NetRootVnode : public Vnode, public std::enable_shared_from_this<NetRootVnode> {
 public:
  NetRootVnode(obs::Context& obs, const std::vector<NetProto*>* protos)
      : obs_(obs), protos_(protos) {}

  Qid qid() override { return Qid{QidRoot() | kQidDirBit, 0}; }

  Result<Dir> Stat() override {
    Dir d;
    d.name = "net";
    d.qid = qid();
    d.mode = kDmDir | 0555;
    d.type = 'I';
    return d;
  }

  Result<std::shared_ptr<Vnode>> Walk(const std::string& name) override {
    if (name == "." || name == "..") {
      return std::shared_ptr<Vnode>(shared_from_this());
    }
    for (size_t k = 0; k < kObsFileCount; k++) {
      if (name == kObsFiles[k]) {
        return std::shared_ptr<Vnode>(std::make_shared<ObsFileVnode>(obs_, k));
      }
    }
    for (size_t p = 0; p < protos_->size(); p++) {
      if ((*protos_)[p]->name() == name) {
        return std::shared_ptr<Vnode>(std::make_shared<ProtoDirVnode>(
            (*protos_)[p], p, shared_from_this()));
      }
    }
    return Error(kErrNotExist);
  }

  Result<Bytes> Read(uint64_t offset, uint32_t count) override {
    std::vector<std::string> names(kObsFiles, kObsFiles + kObsFileCount);
    for (NetProto* proto : *protos_) {
      names.push_back(proto->name());
    }
    return ListDir(this, names, offset, count);
  }

 private:
  obs::Context& obs_;
  const std::vector<NetProto*>* protos_;
};

}  // namespace

NetDirVfs::NetDirVfs(obs::Context& obs) : obs_(obs) {}

NetDirVfs::~NetDirVfs() = default;

void NetDirVfs::Add(NetProto* proto) { protos_.push_back(proto); }

Result<std::shared_ptr<Vnode>> NetDirVfs::Attach(const std::string& uname,
                                                 const std::string& aname) {
  return std::shared_ptr<Vnode>(std::make_shared<NetRootVnode>(obs_, &protos_));
}

}  // namespace plan9
