#include "src/task/lockcheck.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace plan9 {
namespace lockcheck {
namespace {

struct Edge {
  // Where each side of the ordering was acquired when the edge was first
  // observed: `from` was held at from_site when `to` was taken at to_site.
  std::string from_site;
  std::string to_site;
};

struct Graph {
  std::mutex mu;
  std::vector<std::string> class_names;            // index = ClassId
  std::vector<bool> sleepable;                     // index = ClassId
  std::map<ClassId, std::map<ClassId, Edge>> out;  // adjacency, first-seen sites
};

// Leaked: lock classes outlive every static destructor that might still
// take a QLock.
Graph& G() {
  static Graph* g = new Graph();
  return *g;
}

struct Held {
  const void* lock;
  ClassId cls;
  std::string site;
};

thread_local std::vector<Held> t_held;

std::string Site(const char* file, int line) {
  return std::string(file) + ":" + std::to_string(line);
}

// DFS: does `from` reach `to` in the order graph?  Records the path taken.
bool Reaches(const Graph& g, ClassId from, ClassId to, std::vector<ClassId>* path,
             std::vector<bool>* seen) {
  if (from == to) {
    path->push_back(from);
    return true;
  }
  (*seen)[from] = true;
  auto it = g.out.find(from);
  if (it != g.out.end()) {
    for (const auto& [next, edge] : it->second) {
      if (!(*seen)[next] && Reaches(g, next, to, path, seen)) {
        path->push_back(from);
        return true;
      }
    }
  }
  return false;
}

[[noreturn]] void Die() {
  std::fflush(stderr);
  std::abort();
}

const char* Name(const Graph& g, ClassId cls) { return g.class_names[cls].c_str(); }

}  // namespace

ClassId RegisterClass(const char* name) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  for (ClassId i = 0; i < g.class_names.size(); ++i) {
    if (g.class_names[i] == name) {
      return i;
    }
  }
  g.class_names.emplace_back(name);
  g.sleepable.push_back(false);
  return static_cast<ClassId>(g.class_names.size() - 1);
}

ClassId RegisterInstanceClass() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.class_names.emplace_back("qlock#" + std::to_string(g.class_names.size()));
  g.sleepable.push_back(false);
  return static_cast<ClassId>(g.class_names.size() - 1);
}

void SetClassSleepable(ClassId cls) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.sleepable[cls] = true;
}

void OnBlock(const void* lock, const char* file, int line) {
  for (const Held& h : t_held) {
    if (h.lock == lock) {
      continue;  // the rendez's own lock: released atomically by the wait
    }
    Graph& g = G();
    std::lock_guard<std::mutex> glock(g.mu);
    if (g.sleepable[h.cls]) {
      continue;
    }
    std::fprintf(stderr,
                 "plan9net lockcheck: blocking under qlock\n"
                 "  rendez sleep at %s\n"
                 "  while holding qlock %p (class \"%s\") acquired at %s\n"
                 "  (only the rendez's own lock, or a class marked sleepable, "
                 "may be held across a sleep; see DESIGN.md)\n",
                 Site(file, line).c_str(), h.lock, Name(g, h.cls), h.site.c_str());
    Die();
  }
}

void OnDeliver() {
  if (t_held.empty()) {
    return;
  }
  const Held& h = t_held.back();
  Graph& g = G();
  std::lock_guard<std::mutex> glock(g.mu);
  std::fprintf(stderr,
               "plan9net lockcheck: delivery scope closed under qlock\n"
               "  holding qlock %p (class \"%s\") acquired at %s\n"
               "  (a closing delivery scope runs timer callbacks, which take "
               "conversation locks; close it with no qlock held; see DESIGN.md)\n",
               h.lock, Name(g, h.cls), h.site.c_str());
  Die();
}

void UnregisterInstanceClass(ClassId cls) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.out.erase(cls);
  for (auto& [from, edges] : g.out) {
    edges.erase(cls);
  }
}

void OnAcquire(const void* lock, ClassId cls, const char* file, int line) {
  std::string site = Site(file, line);
  for (const Held& h : t_held) {
    if (h.lock == lock) {
      std::fprintf(stderr,
                   "plan9net lockcheck: self-deadlock\n"
                   "  thread re-acquires qlock %p (class \"%s\") at %s\n"
                   "  already held since %s\n",
                   lock, Name(G(), cls), site.c_str(), h.site.c_str());
      Die();
    }
  }
  {
    Graph& g = G();
    std::lock_guard<std::mutex> glock(g.mu);
    for (const Held& h : t_held) {
      if (h.cls == cls) {
        continue;  // same-class nesting is not ordered (see header)
      }
      auto& edges = g.out[h.cls];
      if (edges.count(cls)) {
        continue;  // edge already known, order already validated
      }
      // New edge class(h) -> cls: a cycle exists iff cls already reaches
      // class(h) through previously observed orderings.
      std::vector<ClassId> path;
      std::vector<bool> seen(g.class_names.size(), false);
      if (Reaches(g, cls, h.cls, &path, &seen)) {
        std::fprintf(stderr,
                     "plan9net lockcheck: lock order inversion\n"
                     "  acquiring class \"%s\" at %s\n"
                     "  while holding class \"%s\" acquired at %s\n"
                     "  but the opposite order was already established:\n",
                     Name(g, cls), site.c_str(), Name(g, h.cls), h.site.c_str());
        // path is recorded leaf-first: cls ... h.cls reversed by the DFS.
        for (size_t i = path.size(); i-- > 1;) {
          const Edge& e = g.out.at(path[i]).at(path[i - 1]);
          std::fprintf(stderr,
                       "    \"%s\" (held at %s) -> \"%s\" (acquired at %s)\n",
                       Name(g, path[i]), e.from_site.c_str(), Name(g, path[i - 1]),
                       e.to_site.c_str());
        }
        Die();
      }
      edges.emplace(cls, Edge{h.site, site});
    }
  }
  t_held.push_back(Held{lock, cls, std::move(site)});
}

void OnTryAcquire(const void* lock, ClassId cls, const char* file, int line) {
  std::string site = Site(file, line);
  for (const Held& h : t_held) {
    if (h.lock == lock) {
      std::fprintf(stderr,
                   "plan9net lockcheck: self-deadlock\n"
                   "  thread try-acquires qlock %p (class \"%s\") at %s\n"
                   "  already held since %s\n",
                   lock, Name(G(), cls), site.c_str(), h.site.c_str());
      Die();
    }
  }
  t_held.push_back(Held{lock, cls, std::move(site)});
}

void OnRelease(const void* lock) {
  // Usually LIFO, but guard.Unlock() can release from mid-stack.
  for (size_t i = t_held.size(); i-- > 0;) {
    if (t_held[i].lock == lock) {
      t_held.erase(t_held.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

int HeldCount() { return static_cast<int>(t_held.size()); }

}  // namespace lockcheck
}  // namespace plan9
