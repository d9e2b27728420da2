// Minimal leveled logging to stderr.
//
// Experiments and long-running training loops report progress through this
// logger. Verbosity is a process-wide setting so bench binaries can expose a
// --quiet flag.
#pragma once

#include <sstream>
#include <string>

namespace asteria::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Sets the minimum level that is emitted (default kInfo).
void SetLogLevel(LogLevel level);

// Parses "debug"|"info"|"warn"|"error" (case-sensitive, the spelling the
// --log_level flag documents). Returns false on anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);

// Emits one formatted line "[LEVEL ts tNN] message" to stderr if enabled.
// tNN is a small process-local thread ordinal (main thread is t00), stable
// for the thread's lifetime, so interleaved ParallelFor logs are
// attributable.
void LogLine(LogLevel level, const std::string& message);

namespace internal {

// Stream-style builder: LOG(Info) << "x=" << x; emits on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { LogLine(level_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace asteria::util

#define ASTERIA_LOG(level)                  \
  ::asteria::util::internal::LogMessage(    \
      ::asteria::util::LogLevel::k##level)
