// Error handling primitives for plan9net.
//
// Plan 9 reports errors as strings ("connection refused", "file does not
// exist"); we keep that model.  Result<T> carries either a value or an Error,
// mirroring the procedural 9P convention that every operation can fail with a
// human-readable diagnostic.
#ifndef SRC_BASE_RESULT_H_
#define SRC_BASE_RESULT_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace plan9 {

// Canonical error strings, matching the diagnostics Plan 9 kernels emit.
// Comparing err.message() against these constants is the supported way to
// distinguish error causes.
inline constexpr const char kErrNotExist[] = "file does not exist";
inline constexpr const char kErrPerm[] = "permission denied";
inline constexpr const char kErrNotDir[] = "not a directory";
inline constexpr const char kErrIsDir[] = "file is a directory";
inline constexpr const char kErrBadArg[] = "bad arg in system call";
inline constexpr const char kErrBadCtl[] = "unknown control request";
inline constexpr const char kErrHungup[] = "i/o on hungup channel";
inline constexpr const char kErrShutdown[] = "device shut down";
inline constexpr const char kErrConnRefused[] = "connection refused";
inline constexpr const char kErrTimedOut[] = "connection timed out";
inline constexpr const char kErrInUse[] = "file in use";
inline constexpr const char kErrBadFd[] = "fd out of range or not open";
inline constexpr const char kErrNoConv[] = "no free conversations";
inline constexpr const char kErrClosed[] = "connection closed";
inline constexpr const char kErrExists[] = "file already exists";
inline constexpr const char kErrNoRoute[] = "no route to destination";
inline constexpr const char kErrUnknownService[] = "unknown service";
inline constexpr const char kErrBadAddr[] = "bad network address";
inline constexpr const char kErrInterrupted[] = "interrupted";

// A failure diagnostic.  Cheap to copy; never empty on a failed operation.
class Error {
 public:
  Error() = default;
  explicit Error(std::string message) : message_(std::move(message)) {}

  const std::string& message() const { return message_; }
  bool Is(const char* canonical) const { return message_ == canonical; }

 private:
  std::string message_;
};

// Result<T>: either a T or an Error.  Use Result<void> (below) for
// operations that produce no value.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}       // NOLINT(runtime/explicit)
  Result(Error error) : rep_(std::move(error)) {}   // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& take() {
    assert(ok());
    return std::move(std::get<T>(rep_));
  }
  T value_or(T fallback) const { return ok() ? std::get<T>(rep_) : std::move(fallback); }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(rep_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  std::variant<T, Error> rep_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  const Error& error() const {
    assert(failed_);
    return error_;
  }

  static Result<void> Ok() { return Result<void>(); }

 private:
  Error error_;
  bool failed_ = false;
};

using Status = Result<void>;

// Propagate failure to the caller.  `expr` must yield a Result<...>.
#define P9_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    auto p9_status_ = (expr);                    \
    if (!p9_status_.ok()) {                      \
      return ::plan9::Error(p9_status_.error()); \
    }                                            \
  } while (0)

// Evaluate `expr` (a Result<T>), propagate failure, else bind the value.
#define P9_ASSIGN_OR_RETURN(lhs, expr)           \
  P9_ASSIGN_OR_RETURN_IMPL_(                     \
      P9_RESULT_CAT_(p9_result_, __LINE__), lhs, expr)
#define P9_RESULT_CAT_INNER_(a, b) a##b
#define P9_RESULT_CAT_(a, b) P9_RESULT_CAT_INNER_(a, b)
#define P9_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) {                                \
    return ::plan9::Error(tmp.error());           \
  }                                               \
  lhs = std::move(tmp).take()

}  // namespace plan9

#endif  // SRC_BASE_RESULT_H_
