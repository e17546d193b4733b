#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mvgnn::obs::json {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("json: " + what + " at byte offset " +
                           std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing garbage after document");
    return v;
  }

 private:
  // Deep enough for any document this repo writes (traces nest ~4 levels);
  // shallow enough that corrupt input can't blow the stack.
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    Value v;
    switch (c) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"': v = Value::make_string(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail(pos_, "invalid literal");
        v = Value::make_bool(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail(pos_, "invalid literal");
        v = Value::make_bool(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail(pos_, "invalid literal");
        break;
      default: v = Value::make_number(parse_number());
    }
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == '}') {
        ++pos_;
        return Value::make_object(std::move(members));
      }
      fail(pos_, "expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == ']') {
        ++pos_;
        return Value::make_array(std::move(items));
      }
      fail(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(pos_ - 1, "invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point. Surrogate pairs don't occur in
          // anything this repo writes; pass them through as-is rather than
          // reject (hand-edited baselines should not be brittle here).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ != before;
    };
    if (!digits()) fail(start, "invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail(start, "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail(start, "invalid number");
    }
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size() || !std::isfinite(v)) {
      fail(start, "unparseable number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not a ") + want);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::Number) kind_error("number");
  return num_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return str_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::Array) kind_error("array");
  return *arr_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::Object) kind_error("object");
  return *obj_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const Value* found = nullptr;
  for (const auto& [k, v] : *obj_) {
    if (k == key) found = &v;  // last occurrence wins
  }
  return found;
}

double Value::num_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  if (v == nullptr) return fallback;
  if (v->is_number()) return v->num_;
  if (v->is_bool()) return v->bool_ ? 1.0 : 0.0;
  return fallback;
}

std::string Value::str_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  if (v == nullptr || !v->is_string()) return fallback;
  return v->str_;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double d) {
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = d;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.str_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::Array;
  v.arr_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(Object o) {
  Value v;
  v.kind_ = Kind::Object;
  v.obj_ = std::make_shared<Object>(std::move(o));
  return v;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace mvgnn::obs::json

namespace mvgnn::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mvgnn::obs
