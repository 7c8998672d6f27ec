#pragma once
/// \file log.hpp
/// \brief Lightweight leveled logging with per-run capture.
///
/// The simulator runs millions of events; logging must be cheap when
/// disabled.  `IDEA_LOG(level)` short-circuits before formatting.  A
/// `LogCapture` can be installed in tests to assert on protocol traces.

#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Structured context stamped onto log lines while protocol code runs:
/// which endpoint is executing, at what simulated time, under which causal
/// trace.  Thread-local; unset tags (the default) leave the log format
/// completely unchanged, so observability-off output is byte-identical to
/// the pre-tagging format.
struct LogTags {
  SimTime sim_time = -1;       ///< < 0 = unset.
  NodeId endpoint = kNoNode;   ///< kNoNode = unset.
  std::uint64_t trace = 0;     ///< 0 = untraced.

  [[nodiscard]] bool any() const {
    return sim_time >= 0 || endpoint != kNoNode || trace != 0;
  }
};

/// Global logger facade.  Thread-safe: the sink is called under a mutex.
class Log {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static LogLevel threshold();
  static void set_threshold(LogLevel level);

  /// Replace the sink (default writes to stderr).  Returns the previous one.
  static Sink set_sink(Sink sink);

  static void write(LogLevel level, const std::string& message);

  static const char* level_name(LogLevel level);

  /// Install/replace the calling thread's structured tags; write() prefixes
  /// messages with "[t=<sec> n=<endpoint> trace=<id>]" while any tag is set.
  static void set_tags(const LogTags& tags);
  static LogTags tags();
};

/// RAII tag scope: sets the thread's LogTags for the duration of a protocol
/// handler, restoring the previous tags on exit (handlers nest during
/// same-endpoint fast paths).
class LogTagScope {
 public:
  explicit LogTagScope(const LogTags& tags) : previous_(Log::tags()) {
    Log::set_tags(tags);
  }
  ~LogTagScope() { Log::set_tags(previous_); }

  LogTagScope(const LogTagScope&) = delete;
  LogTagScope& operator=(const LogTagScope&) = delete;

 private:
  LogTags previous_;
};

/// RAII helper that redirects log output into a string buffer, for tests.
class LogCapture {
 public:
  explicit LogCapture(LogLevel threshold = LogLevel::kTrace);
  ~LogCapture();

  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  [[nodiscard]] bool contains(const std::string& needle) const;

 private:
  Log::Sink previous_sink_;
  LogLevel previous_threshold_;
  mutable std::mutex mu_;
  std::string buffer_;
};

namespace detail {
/// Stream-collecting helper behind IDEA_LOG.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Log::write(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace idea

/// Usage: IDEA_LOG(kInfo) << "resolved " << n << " conflicts";
#define IDEA_LOG(level)                                            \
  if (::idea::LogLevel::level < ::idea::Log::threshold()) {        \
  } else                                                           \
    ::idea::detail::LogLine(::idea::LogLevel::level)
