// Generic JSON document model, parser and writer.
//
// Extracted from the network serializer so every subsystem that needs
// structured, machine-readable artifacts (network files, telemetry run
// reports, CLI `--format json` output) shares one JSON implementation.
// Only the subset the schemas need (objects, arrays, numbers, strings,
// bools, null) is modeled, but the parser accepts any standard JSON so
// schema evolution stays painless. Numbers are doubles, except that
// non-negative integer literals within 64 bits parse — and unsigned
// integers write — exactly, so seeds and counters round-trip verbatim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace cold {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys sorted, so serialization is canonical: two
/// logically equal documents print byte-identically.
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::string,
               JsonArray, JsonObject>
      v = nullptr;

  JsonValue() = default;
  JsonValue(std::nullptr_t) : v(nullptr) {}
  JsonValue(bool b) : v(b) {}
  JsonValue(double d) : v(d) {}
  JsonValue(int i) : v(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : v(u) {}
  JsonValue(const char* s) : v(std::string(s)) {}
  JsonValue(std::string s) : v(std::move(s)) {}
  JsonValue(JsonArray a) : v(std::move(a)) {}
  JsonValue(JsonObject o) : v(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_number() const {
    return std::holds_alternative<double>(v) ||
           std::holds_alternative<std::uint64_t>(v);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  const JsonObject& object() const;
  const JsonArray& array() const;
  double number() const;  ///< any number (exact integers convert to double)
  /// An exact unsigned integer: an integer literal, or a double holding an
  /// integral value below 2^64. Throws std::runtime_error on a negative,
  /// fractional, non-finite or out-of-range number.
  std::uint64_t uint() const;
  bool boolean() const;
  const std::string& str() const;

  /// Required object field; throws std::runtime_error when missing.
  const JsonValue& field(const std::string& key) const;

  /// True iff this is an object containing `key`.
  bool has(const std::string& key) const;
};

/// Parses a complete JSON document. Throws std::runtime_error with a
/// position-annotated message on malformed input.
JsonValue parse_json(const std::string& text);

/// Writes `value` with 2-space indentation per nesting level, starting at
/// `indent` levels. Doubles print with 17 significant digits (round-trip
/// exact), unsigned integers verbatim; non-finite numbers throw
/// std::invalid_argument.
void write_json(std::ostream& os, const JsonValue& value, int indent = 0);

std::string json_to_string(const JsonValue& value);

}  // namespace cold
