#include "src/stream/stream.h"

#include <atomic>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/task/hotcheck.h"

namespace plan9 {

void StreamModule::PutDown(BlockPtr b) {
  if (down_ != nullptr) {
    down_->DownPut(std::move(b));
  } else {
    DropBlock(std::move(b));  // unlinked module: nowhere to forward
  }
}

void StreamModule::PutUp(BlockPtr b) {
  if (up_ != nullptr) {
    up_->UpPut(std::move(b));
  } else {
    DropBlock(std::move(b));
  }
}

ModuleRegistry& ModuleRegistry::Instance() {
  static ModuleRegistry* registry = new ModuleRegistry();
  return *registry;
}

void ModuleRegistry::Register(const std::string& name, Factory factory) {
  QLockGuard guard(lock_);
  factories_.emplace_back(name, std::move(factory));
}

std::unique_ptr<StreamModule> ModuleRegistry::Create(const std::string& name) {
  QLockGuard guard(lock_);
  for (auto& [n, f] : factories_) {
    if (n == name) {
      return f();
    }
  }
  return nullptr;
}

// The head module converts UpPut into head-queue insertion and watches for
// hangup blocks from the device end.
class Stream::HeadModule : public StreamModule {
 public:
  explicit HeadModule(Stream* stream) : stream_(stream) {}
  std::string_view name() const override { return "head"; }

  void UpPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH {
    if (b->type == BlockType::kHangup) {
      stream_->hungup_.store(true);
      stream_->head_queue_.Close();
      DropBlock(std::move(b));  // the hangup is now stream state, not data
      return;
    }
    // Input is not flow controlled at the head (device context must not
    // block); the head queue limit bounds via protocol windows instead.
    (void)stream_->head_queue_.PutNoBlock(std::move(b));
  }

  void DownPut(BlockPtr b) override P9_CONSUMES(b) P9_HOT_PATH {
    PutDown(std::move(b));
  }

 private:
  Stream* stream_;
};

Stream::Stream(std::unique_ptr<StreamModule> device_module, size_t head_queue_limit)
    : device_module_(std::move(device_module)),
      head_module_(std::make_unique<HeadModule>(this)),
      head_queue_(head_queue_limit) {
  Relink();
  device_module_->OnOpen(this);
}

Stream::~Stream() {
  head_queue_.CloseAndFlush();
  for (auto& m : modules_) {
    m->OnClose();
  }
  device_module_->OnClose();
}

void Stream::Relink() {
  // head <-> modules[0] <-> ... <-> modules[n-1] <-> device
  StreamModule* prev = head_module_.get();
  for (auto& m : modules_) {
    prev->down_ = m.get();
    m->up_ = prev;
    prev = m.get();
  }
  prev->down_ = device_module_.get();
  device_module_->up_ = prev;
  device_module_->down_ = nullptr;
}

void Stream::SendDown(BlockPtr b) {
  std::shared_lock<std::shared_mutex> lock(chain_lock_);
  if (b->delim && b->type == BlockType::kData) {
    blockaudit::NoteMessage();
  }
  StreamModule* top = head_module_->down_;
  if (top != nullptr) {
    top->DownPut(std::move(b));
  } else {
    DropBlock(std::move(b));
  }
}

Result<size_t> Stream::Write(const uint8_t* data, size_t n) {
  if (hungup_.load()) {
    return Error(kErrHungup);
  }
  P9_HOT_ROOT("stream.write");
  size_t sent = 0;
  do {
    size_t chunk = n - sent < kMaxBlock ? n - sent : kMaxBlock;
    // The single user-to-kernel copy of the data path ("a write of less
    // than 32K is guaranteed to be contained by a single block"); the block
    // node itself comes from the pool.
    auto b = AllocDataBlock(Bytes(data + sent, data + sent + chunk),
                            /*delim=*/sent + chunk == n);
    sent += chunk;
    SendDown(std::move(b));
  } while (sent < n);
  return sent;
}

Status Stream::WriteControl(std::string_view msg) {
  auto words = Tokenize(msg);
  if (!words.empty()) {
    // "The stream system intercepts and interprets the following control
    // blocks: push name / pop / hangup."
    if (words[0] == "push" && words.size() == 2) {
      return Push(words[1]);
    }
    if (words[0] == "pop") {
      return Pop();
    }
    if (words[0] == "hangup") {
      Hangup();
      return Status::Ok();
    }
  }
  if (hungup_.load()) {
    return Error(kErrHungup);
  }
  SendDown(MakeControlBlock(msg));
  return Status::Ok();
}

Result<size_t> Stream::Read(uint8_t* buf, size_t n) {
  QLockGuard read_guard(read_lock_);
  P9_HOT_ROOT("stream.read");
  size_t got = 0;
  while (got < n) {
    BlockPtr b = got == 0 ? head_queue_.Get() : head_queue_.GetNoWait();
    if (b == nullptr) {
      if (got == 0 && !head_queue_.closed()) {
        return Error(kErrInterrupted);  // the reader's alarm rang
      }
      break;  // EOF (hangup) or no more queued data
    }
    if (b->type == BlockType::kControl) {
      // Control blocks reaching the head are rare; skip them for data reads.
      DropBlock(std::move(b));
      continue;
    }
    size_t take = b->size() < n - got ? b->size() : n - got;
    std::memcpy(buf + got, b->payload(), take);
    b->rp += take;
    got += take;
    if (b->size() > 0) {
      head_queue_.PutBack(std::move(b));
      break;  // buffer full
    }
    bool delim = b->delim;
    RecycleBlock(std::move(b));  // fully drained: back to the pool
    if (delim) {
      break;  // "...or when the end of a delimited block is encountered"
    }
  }
  return got;
}

Result<Bytes> Stream::ReadMessage() {
  QLockGuard read_guard(read_lock_);
  P9_HOT_ROOT("stream.read-message");
  Bytes out;
  for (;;) {
    BlockPtr b = head_queue_.Get();
    if (b == nullptr) {
      if (head_queue_.closed()) {
        break;  // EOF
      }
      // The reader's alarm rang: what was gathered waits for the next read.
      if (!out.empty()) {
        head_queue_.PutBack(AllocDataBlock(std::move(out)));
      }
      return Error(kErrInterrupted);
    }
    if (b->type == BlockType::kControl) {
      DropBlock(std::move(b));
      continue;
    }
    out.insert(out.end(), b->payload(), b->payload() + b->size());
    bool delim = b->delim;
    RecycleBlock(std::move(b));
    if (delim) {
      break;
    }
  }
  return out;
}

bool Stream::HasInput() { return head_queue_.block_count() > 0 || hungup_.load(); }

Status Stream::Push(const std::string& module_name) {
  auto module = ModuleRegistry::Instance().Create(module_name);
  if (module == nullptr) {
    return Error(StrFormat("unknown stream module: %s", module_name.c_str()));
  }
  std::unique_lock<std::shared_mutex> lock(chain_lock_);
  modules_.insert(modules_.begin(), std::move(module));
  Relink();
  modules_.front()->OnOpen(this);
  return Status::Ok();
}

Status Stream::Pop() {
  std::unique_lock<std::shared_mutex> lock(chain_lock_);
  if (modules_.empty()) {
    return Error("no module to pop");
  }
  modules_.front()->OnClose();
  modules_.erase(modules_.begin());
  Relink();
  return Status::Ok();
}

size_t Stream::ModuleCount() {
  std::shared_lock<std::shared_mutex> lock(chain_lock_);
  return modules_.size();
}

void Stream::DeliverUp(BlockPtr b) {
  std::shared_lock<std::shared_mutex> lock(chain_lock_);
  if (b->delim && b->type == BlockType::kData) {
    blockaudit::NoteMessage();
  }
  // Enter above the device module so pushed modules see inbound traffic.
  StreamModule* first = device_module_->up_;
  if (first != nullptr) {
    first->UpPut(std::move(b));
  } else {
    DropBlock(std::move(b));
  }
}

void Stream::Hangup() {
  DeliverUp(MakeHangupBlock());
}

bool Stream::hungup() { return hungup_.load(); }

}  // namespace plan9
