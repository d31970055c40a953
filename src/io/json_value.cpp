#include "io/json_value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cold {

const JsonObject& JsonValue::object() const {
  if (!is_object()) throw std::runtime_error("JSON: expected object");
  return std::get<JsonObject>(v);
}

const JsonArray& JsonValue::array() const {
  if (!is_array()) throw std::runtime_error("JSON: expected array");
  return std::get<JsonArray>(v);
}

double JsonValue::number() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<double>(*u);
  }
  if (!is_number()) throw std::runtime_error("JSON: expected number");
  return std::get<double>(v);
}

std::uint64_t JsonValue::uint() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return *u;
  const double x = number();
  // 2^64 is a double, and every double in [0, 2^64) converts exactly; the
  // negated comparison also rejects NaN.
  if (!(x >= 0.0 && x < 18446744073709551616.0) || x != std::floor(x)) {
    throw std::runtime_error("JSON: expected an unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(x);
}

bool JsonValue::boolean() const {
  if (!is_bool()) throw std::runtime_error("JSON: expected bool");
  return std::get<bool>(v);
}

const std::string& JsonValue::str() const {
  if (!is_string()) throw std::runtime_error("JSON: expected string");
  return std::get<std::string>(v);
}

const JsonValue& JsonValue::field(const std::string& key) const {
  const auto& obj = object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("JSON: missing field '" + key + "'");
  }
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return is_object() && object().count(key) > 0;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue{parse_string()};
    if (consume_literal("true")) return JsonValue{true};
    if (consume_literal("false")) return JsonValue{false};
    if (consume_literal("null")) return JsonValue{nullptr};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(obj)};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(obj)};
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(arr)};
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(arr)};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
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
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            // ASCII-only decode (our schemas emit no non-ASCII).
            const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    // Plain digit runs that fit 64 bits stay exact; everything else
    // (signs, fractions, exponents, overflow) is a double.
    std::uint64_t u = 0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, u);
    if (ec == std::errc() && end == last) return JsonValue{u};
    try {
      return JsonValue{std::stod(text_.substr(start, pos_ - start))};
    } catch (const std::exception&) {
      fail("bad number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double x) {
  if (!std::isfinite(x)) throw std::invalid_argument("JSON: non-finite number");
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << x;
  os << tmp.str();
}

void indent_to(std::ostream& os, int levels) {
  for (int i = 0; i < levels; ++i) os << "  ";
}

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

void write_json(std::ostream& os, const JsonValue& value, int indent) {
  if (value.is_null()) {
    os << "null";
  } else if (value.is_bool()) {
    os << (value.boolean() ? "true" : "false");
  } else if (const auto* u = std::get_if<std::uint64_t>(&value.v)) {
    os << *u;
  } else if (value.is_number()) {
    write_number(os, value.number());
  } else if (value.is_string()) {
    write_string(os, value.str());
  } else if (value.is_array()) {
    const JsonArray& arr = value.array();
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os << "[\n";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      indent_to(os, indent + 1);
      write_json(os, arr[i], indent + 1);
      os << (i + 1 < arr.size() ? ",\n" : "\n");
    }
    indent_to(os, indent);
    os << "]";
  } else {
    const JsonObject& obj = value.object();
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << "{\n";
    std::size_t i = 0;
    for (const auto& [key, val] : obj) {
      indent_to(os, indent + 1);
      write_string(os, key);
      os << ": ";
      write_json(os, val, indent + 1);
      os << (++i < obj.size() ? ",\n" : "\n");
    }
    indent_to(os, indent);
    os << "}";
  }
}

std::string json_to_string(const JsonValue& value) {
  std::ostringstream os;
  write_json(os, value);
  os << "\n";
  return os.str();
}

}  // namespace cold
