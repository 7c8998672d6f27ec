#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace idea {

namespace {
std::atomic<int> g_threshold{static_cast<int>(LogLevel::kWarn)};
std::mutex g_sink_mu;
Log::Sink g_sink;  // empty => stderr default

void default_sink(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", Log::level_name(level), msg.c_str());
}

thread_local LogTags g_tags;
}  // namespace

LogLevel Log::threshold() {
  return static_cast<LogLevel>(g_threshold.load(std::memory_order_relaxed));
}

void Log::set_threshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

Log::Sink Log::set_sink(Sink sink) {
  std::scoped_lock lock(g_sink_mu);
  Sink prev = std::move(g_sink);
  g_sink = std::move(sink);
  return prev;
}

void Log::write(LogLevel level, const std::string& message) {
  // With tags set, prefix the structured context; without (the default)
  // the line is untouched, keeping pre-tagging output byte-identical.
  const std::string* out = &message;
  std::string tagged;
  if (g_tags.any()) {
    tagged.reserve(message.size() + 48);
    tagged += '[';
    if (g_tags.sim_time >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "t=%.6fs",
                    static_cast<double>(g_tags.sim_time) / 1e6);
      tagged += buf;
    }
    if (g_tags.endpoint != kNoNode) {
      if (tagged.size() > 1) tagged += ' ';
      tagged += "n=";
      tagged += std::to_string(g_tags.endpoint);
    }
    if (g_tags.trace != 0) {
      if (tagged.size() > 1) tagged += ' ';
      tagged += "trace=";
      tagged += std::to_string(g_tags.trace);
    }
    tagged += "] ";
    tagged += message;
    out = &tagged;
  }
  std::scoped_lock lock(g_sink_mu);
  if (g_sink) {
    g_sink(level, *out);
  } else {
    default_sink(level, *out);
  }
}

void Log::set_tags(const LogTags& tags) { g_tags = tags; }

LogTags Log::tags() { return g_tags; }

const char* Log::level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogCapture::LogCapture(LogLevel threshold)
    : previous_threshold_(Log::threshold()) {
  Log::set_threshold(threshold);
  previous_sink_ = Log::set_sink([this](LogLevel level, const std::string& m) {
    std::scoped_lock lock(mu_);
    buffer_ += Log::level_name(level);
    buffer_ += ": ";
    buffer_ += m;
    buffer_ += '\n';
  });
}

LogCapture::~LogCapture() {
  Log::set_sink(std::move(previous_sink_));
  Log::set_threshold(previous_threshold_);
}

bool LogCapture::contains(const std::string& needle) const {
  std::scoped_lock lock(mu_);
  return buffer_.find(needle) != std::string::npos;
}

}  // namespace idea
