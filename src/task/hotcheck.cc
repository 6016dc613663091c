#include "src/task/hotcheck.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/obs/context.h"

namespace plan9 {
namespace hotcheck {
namespace {

struct TlState {
  int depth = 0;        // nesting of Scope on this thread
  int suspend = 0;      // >0: do not charge allocations (checker internals)
  Mode mode = Mode::kCount;
  const char* root = nullptr;
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  uint64_t copies = 0;
};

TlState& Tl() {
  thread_local TlState state;
  return state;
}

struct HotCounters {
  obs::Counter& msgs;
  obs::Counter& allocs;
  obs::Counter& alloc_bytes;
  obs::Counter& copies;
};

HotCounters& C() {
  // Registration allocates; never charge it to an open scope.
  static HotCounters c = [] {
    SuspendScope suspend;
    auto& r = obs::MetricsRegistry::Default();
    return HotCounters{
        r.CounterNamed("stream.hot.msgs"),
        r.CounterNamed("stream.hot.allocs"),
        r.CounterNamed("stream.hot.alloc-bytes"),
        r.CounterNamed("stream.hot.copies"),
    };
  }();
  return c;
}

[[noreturn]] void DieOnAlloc(std::size_t bytes) {
  TlState& tl = Tl();
  tl.suspend++;  // the dump below allocates freely
  std::fprintf(stderr,
               "hotcheck: heap allocation of %zu bytes inside zero-alloc hot "
               "scope '%s' (%llu allocation(s), %llu block copie(s) so far)\n",
               bytes, tl.root != nullptr ? tl.root : "?",
               static_cast<unsigned long long>(tl.allocs),
               static_cast<unsigned long long>(tl.copies));
  std::string dump = obs::Context::Root().recorder().RenderText();
  if (!dump.empty()) {
    std::fprintf(stderr, "hotcheck: flight recorder:\n%s", dump.c_str());
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

Scope::Scope(const char* root, Mode mode) {
  TlState& tl = Tl();
  outer_ = tl.depth == 0;
  if (outer_) {
    tl.mode = mode;
    tl.root = root;
    tl.allocs = 0;
    tl.bytes = 0;
    tl.copies = 0;
  }
  tl.depth++;
}

Scope::~Scope() {
  TlState& tl = Tl();
  tl.depth--;
  if (!outer_ || tl.depth != 0) return;
  tl.suspend++;
  HotCounters& c = C();
  c.msgs.Inc(1);
  if (tl.allocs != 0) c.allocs.Inc(tl.allocs);
  if (tl.bytes != 0) c.alloc_bytes.Inc(tl.bytes);
  if (tl.copies != 0) c.copies.Inc(tl.copies);
  tl.suspend--;
  tl.root = nullptr;
}

void NoteAlloc(std::size_t bytes) {
  TlState& tl = Tl();
  if (tl.depth == 0 || tl.suspend != 0) return;
  tl.allocs++;
  tl.bytes += bytes;
  if (tl.mode == Mode::kZeroAlloc) DieOnAlloc(bytes);
}

void NoteBlockCopy() {
  TlState& tl = Tl();
  if (tl.depth == 0 || tl.suspend != 0) return;
  tl.copies++;
}

bool InScope() { return Tl().depth > 0; }
uint64_t ScopeAllocs() { return Tl().allocs; }
uint64_t ScopeAllocBytes() { return Tl().bytes; }
uint64_t ScopeCopies() { return Tl().copies; }

SuspendScope::SuspendScope() { Tl().suspend++; }
SuspendScope::~SuspendScope() { Tl().suspend--; }

}  // namespace hotcheck
}  // namespace plan9

#if defined(PLAN9NET_HOTCHECK)

// Replaceable global allocation functions.  Everything funnels through
// malloc/free so the sanitizers (which intercept malloc) still see every
// allocation; the only addition is the thread-local charge to an open hot
// scope.  Deletes are replaced alongside news, as the standard requires.
namespace {

void* HotAlloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  plan9::hotcheck::NoteAlloc(size);
  return p;
}

void* HotAllocAligned(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0) {
    throw std::bad_alloc();
  }
  plan9::hotcheck::NoteAlloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return HotAlloc(size); }
void* operator new[](std::size_t size) { return HotAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return HotAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return HotAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return HotAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return HotAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PLAN9NET_HOTCHECK
