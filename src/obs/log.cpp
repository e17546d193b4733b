#include "obs/log.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mvgnn::obs {

LogLevel parse_log_level(const char* s, LogLevel fallback) {
  if (!s || !*s) return fallback;
  std::string lower;
  for (; *s; ++s) lower += static_cast<char>(std::tolower(*s));
  if (lower == "trace" || lower == "0") return LogLevel::Trace;
  if (lower == "debug" || lower == "1") return LogLevel::Debug;
  if (lower == "info" || lower == "2") return LogLevel::Info;
  if (lower == "warn" || lower == "warning" || lower == "3")
    return LogLevel::Warn;
  if (lower == "error" || lower == "4") return LogLevel::Error;
  if (lower == "off" || lower == "quiet" || lower == "none" || lower == "5")
    return LogLevel::Off;
  return fallback;
}

std::string logfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(n));
  }
  va_end(args);
  return out;
}

std::string Logger::render(LogLevel level, const std::string& msg,
                           const std::vector<LogField>& fields) {
  std::string line;
  if (level == LogLevel::Warn) line += "[warn] ";
  if (level == LogLevel::Error) line += "[error] ";
  line += msg;
  for (const LogField& f : fields) {
    if (!line.empty()) line += "  ";
    line += f.key;
    line += ' ';
    line += f.value;
  }
  return line;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard lock(sink_mu_);
  sink_ = std::move(sink);
}

void Logger::log(LogLevel level, std::string msg,
                 std::vector<LogField> fields) {
  if (!enabled(level) || level == LogLevel::Off) return;
  const std::string line = render(level, msg, fields);
  std::lock_guard lock(sink_mu_);
  if (sink_) {
    sink_(level, line);
    return;
  }
  std::FILE* out = (level >= LogLevel::Warn) ? stderr : stdout;
  std::fputs(line.c_str(), out);
  std::fputc('\n', out);
}

Logger& Logger::global() {
  static Logger* logger = [] {
    auto* l = new Logger();  // leaked: see header
    l->set_level(parse_log_level(std::getenv("MVGNN_LOG_LEVEL")));
    return l;
  }();
  return *logger;
}

void log_debug(std::string msg, std::vector<LogField> fields) {
  Logger::global().log(LogLevel::Debug, std::move(msg), std::move(fields));
}
void log_info(std::string msg, std::vector<LogField> fields) {
  Logger::global().log(LogLevel::Info, std::move(msg), std::move(fields));
}
void log_warn(std::string msg, std::vector<LogField> fields) {
  Logger::global().log(LogLevel::Warn, std::move(msg), std::move(fields));
}
void log_error(std::string msg, std::vector<LogField> fields) {
  Logger::global().log(LogLevel::Error, std::move(msg), std::move(fields));
}

}  // namespace mvgnn::obs
