#include "serve/protocol.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"

namespace mvgnn::serve {

namespace {

/// Recovers the byte offset from an obs::json parse error ("json: ... at
/// byte offset N"). The reader always appends the offset, but be defensive
/// about message drift: nullopt when the suffix is missing.
std::optional<std::uint64_t> offset_of(const std::string& what) {
  const std::string needle = "byte offset ";
  const std::size_t pos = what.rfind(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* digits = what.c_str() + pos + needle.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(digits, &end, 10);
  if (end == digits) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

/// The request id may arrive as a string or a number; normalize to string.
std::string id_of(const obs::json::Value& obj) {
  const obs::json::Value* id = obj.find("id");
  if (id == nullptr) return "";
  if (id->is_string()) return id->as_string();
  if (id->is_number()) {
    char buf[40];
    const double v = id->as_number();
    if (v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.10g", v);
    }
    return buf;
  }
  return "";
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::Malformed: return "malformed";
    case ErrorCode::Oversized: return "oversized";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Shed: return "shed";
    case ErrorCode::DeadlineExpired: return "deadline";
    case ErrorCode::Compile: return "compile";
    case ErrorCode::Profile: return "profile";
    case ErrorCode::Featurize: return "featurize";
    case ErrorCode::BatchFailed: return "batch_failed";
    case ErrorCode::ReloadFailed: return "reload_failed";
    case ErrorCode::ShuttingDown: return "shutting_down";
  }
  return "internal";
}

ParsedLine parse_line(const std::string& line) {
  ParsedLine out;
  obs::json::Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const std::exception& e) {
    out.code = ErrorCode::Malformed;
    out.error = e.what();
    out.offset = offset_of(out.error);
    return out;
  }
  if (!doc.is_object()) {
    out.code = ErrorCode::BadRequest;
    out.error = "request must be a JSON object";
    return out;
  }
  out.id = id_of(doc);

  if (const obs::json::Value* cmd = doc.find("cmd")) {
    if (!cmd->is_string()) {
      out.code = ErrorCode::BadRequest;
      out.error = "`cmd` must be a string";
      return out;
    }
    ControlCommand ctl;
    ctl.cmd = cmd->as_string();
    ctl.checkpoint = doc.str_or("checkpoint", "");
    out.control = std::move(ctl);
    return out;
  }

  const obs::json::Value* source = doc.find("source");
  if (source == nullptr || !source->is_string()) {
    out.code = ErrorCode::BadRequest;
    out.error = "missing required string field `source`";
    return out;
  }
  Request req;
  req.id = out.id;
  req.source = source->as_string();
  if (const obs::json::Value* dl = doc.find("deadline_ms")) {
    if (!dl->is_number() || dl->as_number() < 0) {
      out.code = ErrorCode::BadRequest;
      out.error = "`deadline_ms` must be a non-negative number";
      return out;
    }
    req.deadline_ms = static_cast<std::uint64_t>(dl->as_number());
  }
  out.request = std::move(req);
  return out;
}

std::string render_ok(const std::string& id,
                      const std::vector<LoopVerdict>& loops,
                      std::uint64_t model_version, std::uint64_t batch_id,
                      std::size_t batch_size, std::uint64_t latency_us) {
  std::string out;
  out.reserve(128 + loops.size() * 96);
  out += "{\"id\": \"";
  out += json_escape(id);
  out += "\", \"ok\": true, \"model_version\": ";
  out += std::to_string(model_version);
  out += ", \"batch_id\": ";
  out += std::to_string(batch_id);
  out += ", \"batch_size\": ";
  out += std::to_string(batch_size);
  out += ", \"latency_us\": ";
  out += std::to_string(latency_us);
  out += ", \"loops\": [";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const LoopVerdict& v = loops[i];
    if (i != 0) out += ", ";
    out += "{\"line\": ";
    out += std::to_string(v.line);
    out += ", \"verdict\": \"";
    out += v.fused ? "parallelizable" : "sequential";
    out += "\", \"node_view\": \"";
    out += v.node_view ? "par" : "seq";
    out += "\", \"struct_view\": \"";
    out += v.struct_view ? "par" : "seq";
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message,
                         std::optional<std::uint64_t> offset) {
  std::string out;
  out.reserve(96 + message.size());
  out += "{\"id\": \"";
  out += json_escape(id);
  out += "\", \"ok\": false, \"error\": {\"code\": \"";
  out += to_string(code);
  out += "\", \"message\": \"";
  out += json_escape(message);
  out += '"';
  if (offset) {
    out += ", \"offset\": ";
    out += std::to_string(*offset);
  }
  out += "}}";
  return out;
}

}  // namespace mvgnn::serve
