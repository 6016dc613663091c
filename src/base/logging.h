// Minimal leveled logging.  Off by default; enabled per-process via
// SetLogLevel or the PLAN9_LOG environment variable (0..3).
#ifndef SRC_BASE_LOGGING_H_
#define SRC_BASE_LOGGING_H_

#include <sstream>
#include <string>

namespace plan9 {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();
bool LogEnabled(LogLevel level);

// Emits "[sec.usec] [L] [kproc] line".  The line is composed into one
// buffer and written with a single call under a mutex, so concurrent writers
// never interleave mid-line; the timestamp is monotonic (steady clock since
// process start).
void LogLine(LogLevel level, const std::string& line);

// Stream-style one-shot logger: LogMessage(kInfo).stream() << ...
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { LogLine(level_, stream_.str()); }
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

#define P9_LOG(level)                               \
  if (!::plan9::LogEnabled(::plan9::LogLevel::level)) { \
  } else                                            \
    ::plan9::LogMessage(::plan9::LogLevel::level).stream()

}  // namespace plan9

#endif  // SRC_BASE_LOGGING_H_
