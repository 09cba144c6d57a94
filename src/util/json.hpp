// ifsyn/util/json.hpp
//
// The project's one JSON codec: a minimal value type, a strict
// recursive-descent parser and a deterministic serializer. The serve
// front end's newline-delimited request/response protocol reads and
// writes it, obs::validate_trace_json walks it, and every hand-written
// JSON emitter (trace sink, event log, metrics snapshot, exploration
// report) quotes its strings with json_quote. Deliberately not a general
// JSON library:
//
//   - numbers are stored as double (plenty for ids, cycle budgets and
//     latencies; 2^53 integer range);
//   - objects are std::map, so members serialize in sorted key order and
//     a value's dump() is a pure function of its content — the property
//     the serve determinism contract ("byte-identical responses") leans
//     on; a duplicated key keeps its last value, as Python's json does;
//   - the parser is strict, because serve input is untrusted: it caps
//     nesting depth, rejects trailing garbage and raw control characters
//     in strings, and decodes \u escapes (surrogate pairs included) to
//     UTF-8, refusing lone surrogates. That is the rule set of Python's
//     strict json.loads plus scripts/validate_trace_json.py's surrogate
//     walk, so the C++ and Python trace validators agree.
//
// No external dependency — the repo builds offline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace ifsyn {

class Json;

using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}        // NOLINT
  Json(bool b) : value_(b) {}                      // NOLINT
  Json(double n) : value_(n) {}                    // NOLINT
  Json(int n) : value_(static_cast<double>(n)) {}  // NOLINT
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}   // NOLINT
  Json(std::uint64_t n) : value_(static_cast<double>(n)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(std::string s) : value_(std::move(s)) {}    // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}      // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}     // NOLINT

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member lookup; null when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Compact serialization (no whitespace). Object members in sorted key
  /// order; equal values always produce equal bytes.
  std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Parse one JSON document. The whole input must be consumed (trailing
/// whitespace allowed). Errors are kInvalidArgument with a byte offset
/// and a description — structured enough for a serve error response.
Result<Json> parse_json(std::string_view text);

/// Escape and quote a string for inclusion in JSON output: `"`, `\`
/// and every control character below 0x20 are escaped, so the result
/// always parses back (with parse_json or any strict JSON reader) to `s`.
std::string json_quote(std::string_view s);

}  // namespace ifsyn
