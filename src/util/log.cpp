#include "util/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace asteria::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
// Small per-thread ordinal for log attribution (main thread gets 0).
unsigned ThreadOrdinal() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level); }

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void LogLine(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::fprintf(stderr, "[%s %8.3fs t%02u] %s\n", LevelName(level), secs,
               ThreadOrdinal(), message.c_str());
}

}  // namespace asteria::util
