// Wire protocol for the `mvgnn serve` daemon: line-delimited JSON over a
// TCP stream (docs/serving.md). One request per line, one response line per
// request, in order. No external dependencies — requests are parsed with
// the same obs::json reader the observability tooling uses, responses are
// rendered by hand.
//
// Inference request:
//   {"id": "r1", "source": "float kernel(...) {...}", "deadline_ms": 500}
//     id           optional; echoed verbatim in the response (numbers are
//                  echoed as their decimal rendering)
//     source       required; a MiniC program whose entry is `kernel`
//     deadline_ms  optional; relative to arrival. Omitted = the server
//                  default; 0 = no deadline.
//
// Control commands (bypass admission control):
//   {"cmd": "ping"}
//   {"cmd": "stats"}
//   {"cmd": "reload", "checkpoint": "path.mvck"}   // path optional: omitted
//                                                  // re-reads the startup
//                                                  // checkpoint path
//
// Success response:
//   {"id":"r1","ok":true,"model_version":2,"batch_id":17,"batch_size":9,
//    "latency_us":1834,
//    "loops":[{"line":4,"verdict":"parallelizable","node_view":"par",
//              "struct_view":"seq"}]}
//
// Error response (always a response — the daemon never answers a framed
// request by dropping the connection):
//   {"id":"r1","ok":false,
//    "error":{"code":"malformed","message":"...","offset":17}}
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace mvgnn::serve {

/// Typed request-level failure classes. Every failed request is answered
/// with exactly one of these so clients can distinguish "back off" (Shed)
/// from "your program is broken" (Compile/Profile/Featurize) from "the
/// server is going away" (ShuttingDown).
enum class ErrorCode : std::uint8_t {
  Malformed,        ///< request line is not valid JSON (offset = parse stop)
  Oversized,        ///< request line exceeds the configured byte cap
  BadRequest,       ///< valid JSON but not a valid request (e.g. no source)
  Shed,             ///< admission control rejected: queue/byte budget full
  DeadlineExpired,  ///< the request's deadline passed before its batch ran
  Compile,          ///< MiniC frontend rejected the program
  Profile,          ///< interpreter trap (incl. fuel/memory cap exhaustion)
  Featurize,        ///< PEG/walk/featurization failure
  BatchFailed,      ///< the whole batch's forward failed (fault injection /
                    ///< internal error); the daemon keeps serving
  ReloadFailed,     ///< hot reload rejected; the old model keeps serving
  ShuttingDown,     ///< request arrived during drain
};

/// Stable wire name for an error code ("shed", "deadline", ...).
[[nodiscard]] const char* to_string(ErrorCode code);

struct Request {
  std::string id;
  std::string source;
  /// 0 = no deadline. kUseDefault = field absent, apply the server default.
  static constexpr std::uint64_t kUseDefault = ~0ull;
  std::uint64_t deadline_ms = kUseDefault;
};

struct ControlCommand {
  std::string cmd;         // "ping" | "stats" | "reload"
  std::string checkpoint;  // reload only; may be empty
};

/// Outcome of parsing one request line. Exactly one of `request`/`control`
/// is set on success; otherwise `code`/`error` (and `offset` when the
/// failure has a byte position) describe the rejection. `id` is recovered
/// when the line was at least valid JSON, so even rejections echo it.
struct ParsedLine {
  std::optional<Request> request;
  std::optional<ControlCommand> control;
  ErrorCode code = ErrorCode::Malformed;
  std::string error;
  std::optional<std::uint64_t> offset;
  std::string id;
};

[[nodiscard]] ParsedLine parse_line(const std::string& line);

/// Per-loop verdict, one row of the batched forward.
struct LoopVerdict {
  int line = 0;         ///< source line of the `for` statement
  int fused = 0;        ///< 1 = parallelizable (the MV-GNN prediction)
  int node_view = 0;    ///< node-feature view head
  int struct_view = 0;  ///< structural view head
};

/// Renders one success response line (no trailing newline).
[[nodiscard]] std::string render_ok(const std::string& id,
                                    const std::vector<LoopVerdict>& loops,
                                    std::uint64_t model_version,
                                    std::uint64_t batch_id,
                                    std::size_t batch_size,
                                    std::uint64_t latency_us);

/// Renders one error response line (no trailing newline).
[[nodiscard]] std::string render_error(
    const std::string& id, ErrorCode code, const std::string& message,
    std::optional<std::uint64_t> offset = std::nullopt);

/// JSON string-escapes `s`: the shared escaper of obs/json.hpp.
using obs::json_escape;

}  // namespace mvgnn::serve
