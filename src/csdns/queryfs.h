// The query file CS and DNS both serve (§4.2).
//
// "CS is a file server serving a single file, /net/cs.  A client writes a
// symbolic name to /net/cs then reads one line for each matching
// destination"; DNS is "like CS ... providing one file, /net/dns".  A
// QueryVfs is that one-file tree, union-mounted onto /net: each walk to the
// file gets its own query state, a write runs a query, each read returns
// the next answer line, and a read at offset 0 starts the answer over.
#ifndef SRC_CSDNS_QUERYFS_H_
#define SRC_CSDNS_QUERYFS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ninep/server.h"

namespace plan9 {

class QueryVfs : public Vfs {
 public:
  // Answers one query with its lines, or fails.  May block (DNS dials).
  using QueryFn = std::function<Result<std::vector<std::string>>(const std::string& query)>;

  // `name` names the tree and its file; `root_path` and `file_path` are
  // their qid paths.
  QueryVfs(std::string name, uint32_t root_path, uint32_t file_path, QueryFn query);

  Result<std::shared_ptr<Vnode>> Attach(const std::string& uname,
                                        const std::string& aname) override;

 private:
  class Root;
  class File;

  Dir root_;  // what Stat returns for the tree's root
  Dir file_;  // ...and for the file, as the root's listing does
  QueryFn query_;
};

}  // namespace plan9

#endif  // SRC_CSDNS_QUERYFS_H_
