#include "src/base/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/base/strings.h"
#include "src/task/kproc.h"

namespace plan9 {
namespace {

std::atomic<int> g_level{[] {
  const char* env = std::getenv("PLAN9_LOG");
  return env != nullptr ? std::atoi(env) : 0;
}()};

std::mutex g_log_mutex;  // one fwrite per line

const std::chrono::steady_clock::time_point g_log_epoch =
    std::chrono::steady_clock::now();

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "E";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kDebug:
      return "D";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel GetLogLevel() { return static_cast<LogLevel>(g_level.load()); }

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <= g_level.load(std::memory_order_relaxed);
}

void LogLine(LogLevel level, const std::string& line) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - g_log_epoch);
  std::string who = Kproc::CurrentName();
  std::string full =
      StrFormat("[%4lld.%06lld] [%s] [%s] %s\n", (long long)(us.count() / 1000000),
                (long long)(us.count() % 1000000), LevelName(level), who.c_str(),
                line.c_str());
  // One write call per line: writers never interleave mid-line.
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fwrite(full.data(), 1, full.size(), stderr);
}

}  // namespace plan9
