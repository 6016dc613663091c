// plan9lint fixture: lock order through shared code.  The conversation core
// declares its locks unnamed; each protocol names them through its
// constructors, and the core's bodies take their classes (and the element
// type of the table) from the protocol that derives from it, through a
// shared template layer between the core's table and the protocol.
#include <memory>
#include <vector>

#include "src/task/qlock.h"

namespace plan9 {

class Core {
 public:
  void Use() {
    QLockGuard g(lock_);
  }

 protected:
  explicit Core(const char* lock_class) : lock_(lock_class) {}

  QLock lock_;
};

// An intermediate layer forwards the name it is given.
class Layer : public Core {
 protected:
  Layer(int unused, const char* lock_class) : Core(lock_class) {}
};

template <class C>
class Table {
 public:
  void GoodScan() {
    QLockGuard guard(lock_);
    for (auto& slot : slots_) {
      C* c = slot.get();
      QLockGuard cguard(c->lock_);  // table before conversation: declared
    }
  }

  void BadDrain(C* c) {
    QLockGuard cguard(c->lock_);
    QLockGuard guard(lock_);  // BAD: the table's lock under a conversation's
  }

 protected:
  explicit Table(const char* lock_class) : lock_(lock_class) {}

  QLock lock_;
  std::vector<std::unique_ptr<C>> slots_;
};

// The shared layer: a template that constructs its base with template
// arguments and scans the slots in one pass, table before conversation.
template <class C>
class IpTable : public Table<C> {
 public:
  C* Demux(int port) {
    QLockGuard guard(lock_);
    for (auto& slot : slots_) {
      C* c = slot.get();
      QLockGuard cguard(c->lock_);
      if (c->port_ == port) {
        return c;
      }
    }
    return nullptr;
  }

 protected:
  IpTable(int unused, const char* lock_class) : Table<C>(lock_class) {}

  using Table<C>::lock_;
  using Table<C>::slots_;
};

class IlConv final : public Layer {
 public:
  IlConv() : Layer(0, "il.conv") {}
  friend class IlProto;
  friend class IpTable<IlConv>;

 private:
  int port_ = 0;
};

class IlProto : public IpTable<IlConv> {
 public:
  IlProto() : IpTable(0, "il.proto") {}
};

}  // namespace plan9
