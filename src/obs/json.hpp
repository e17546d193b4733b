// Minimal JSON reader for the observability tooling — just enough to parse
// what this repo itself writes (Chrome traces from obs/trace.cpp, metrics
// snapshots from obs/metrics.cpp, BenchReport files from obs/bench_report.cpp)
// plus hand-edited baselines. No external dependency; strict enough to
// reject torn/truncated documents loudly rather than misattribute numbers.
//
// Deliberately small surface:
//  * All numbers are doubles (the writers never emit integers that lose
//    precision below 2^53 — span ids stay under 2^53 by construction).
//  * Object keys keep insertion order; duplicate keys keep the last value
//    (matching how browsers treat trace JSON).
//  * `parse` throws std::runtime_error with a byte offset on malformed
//    input, in the same spirit as the checkpoint/corpus loaders (src/io).
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvgnn::obs::json {

class Value;

using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }

  /// Typed accessors: throw std::runtime_error on kind mismatch so callers
  /// fail loudly on schema drift instead of reading zeros.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or when this is not an
  /// object. Duplicate keys resolve to the last occurrence.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Convenience: member as number/string with a fallback when absent or of
  /// the wrong kind. `num_or` tolerates booleans (0/1) since Chrome tools
  /// emit flags both ways.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   std::string fallback) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double d);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(Object o);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirect so Value stays movable/copyable without recursive layout.
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parses one JSON document. Trailing whitespace is allowed, trailing
/// non-whitespace is an error. Throws std::runtime_error with a byte offset
/// on malformed input or nesting deeper than an internal sanity cap.
Value parse(std::string_view text);

}  // namespace mvgnn::obs::json

namespace mvgnn::obs {

/// `s` as the body of a JSON string (no surrounding quotes): `"`, `\`,
/// newline, carriage return and tab as short escapes, every other byte
/// below 0x20 as `\u00XX`, everything else verbatim. The one escaper of
/// every JSON writer in the repo (traces, metrics, reports, bench reports,
/// sampler rows, serve responses).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace mvgnn::obs
