// Structured, level-filtered logging.
//
//   obs::log_info("", {{"epoch", obs::logfmt("%3zu", e)},
//                      {"loss", obs::logfmt("%.4f", loss)}});
//   // -> "epoch   0  loss 1.0986"
//
// Design notes:
//  * A record is a free-form message plus ordered key/value fields whose
//    values are pre-formatted strings. The default text rendering joins
//    `key value` pairs with two spaces — deliberately identical to the
//    printf tables this repo has always emitted, so replacing printf with
//    the logger does not change any parseable output.
//  * Info and below go to stdout bare; Warn/Error are prefixed with
//    "[warn] "/"[error] " and keep stdout clean by going to stderr.
//  * The minimum level defaults to Info and honours the MVGNN_LOG_LEVEL
//    environment variable (trace|debug|info|warn|error|off) at startup.
//  * Records are written synchronously, under a mutex.
//  * `Logger::global()` is a leaked singleton; independent instances can be
//    constructed for tests.
#pragma once

#include <atomic>
#include <cstdarg>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace mvgnn::obs {

enum class LogLevel : int { Trace = 0, Debug, Info, Warn, Error, Off };

/// Parses a level name (case-insensitive) or digit; `fallback` on junk.
LogLevel parse_log_level(const char* s, LogLevel fallback = LogLevel::Info);

/// One pre-formatted key/value field.
struct LogField {
  std::string key;
  std::string value;
};

/// printf-style formatting into a std::string (for field values).
std::string logfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

class Logger {
 public:
  /// A sink receives the fully rendered line (no trailing newline) plus the
  /// record's level, e.g. to route to a file or a test capture buffer.
  using Sink = std::function<void(LogLevel, const std::string& line)>;

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) noexcept {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const noexcept {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Replaces the output sink (default: stdout for <= Info, stderr above).
  void set_sink(Sink sink);

  void log(LogLevel level, std::string msg, std::vector<LogField> fields = {});

  /// Renders a record the way the default sink prints it: message, then
  /// `key value` pairs joined by two spaces, Warn/Error level-prefixed.
  static std::string render(LogLevel level, const std::string& msg,
                            const std::vector<LogField>& fields);

  /// Process-wide logger (never destroyed). Level is initialized from
  /// MVGNN_LOG_LEVEL on first use.
  static Logger& global();

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::Info)};
  std::mutex sink_mu_;
  Sink sink_;
};

// Convenience wrappers against the global logger.
void log_debug(std::string msg, std::vector<LogField> fields = {});
void log_info(std::string msg, std::vector<LogField> fields = {});
void log_warn(std::string msg, std::vector<LogField> fields = {});
void log_error(std::string msg, std::vector<LogField> fields = {});

}  // namespace mvgnn::obs
