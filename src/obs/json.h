// A minimal JSON linter and DOM for the observability exporters and the
// fault-plan loader.
//
// The trace and metrics writers emit JSON by hand (no third-party dependency
// is available in this tree), so the schema-validating tests and the
// ci/trace_smoke.sh ctest need an independent parser to confirm the output
// actually parses. LintJson is a strict RFC 8259 recursive-descent
// validator: it builds no DOM, just checks well-formedness and reports the
// top-level object's keys so callers can assert required members exist.
// ParseJson runs the same grammar but materialises a JsonValue tree — the
// input side of the house, used by fault::ParseFaultPlan to read declarative
// fault plans from disk.

#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wdmlat::obs {

struct JsonLintResult {
  bool valid = false;
  // Populated when !valid: position (byte offset plus 1-based line:column)
  // and message of the first error.
  std::size_t error_offset = 0;
  std::size_t error_line = 0;
  std::size_t error_column = 0;
  std::string error;
  // When the document is a valid object: its top-level member names, in
  // document order.
  std::vector<std::string> top_level_keys;

  bool HasTopLevelKey(std::string_view key) const;
};

// Validate that `text` is exactly one well-formed JSON value (plus optional
// surrounding whitespace).
JsonLintResult LintJson(std::string_view text);

// A parsed JSON value. Numbers are stored as double (ample for the plan
// schema: durations, rates, seeds up to 2^53); object members keep document
// order. On hand-built objects Find keeps the last occurrence of a repeated
// key; documents arriving through ParseJson can never contain one (the
// parser rejects duplicates — see below).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double as_number(double fallback = 0.0) const { return is_number() ? number_ : fallback; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Object member lookup (last occurrence wins); nullptr when absent or when
  // this value is not an object.
  const JsonValue* Find(std::string_view key) const;
  // Convenience typed lookups with fallbacks for optional schema fields.
  double NumberOr(std::string_view key, double fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonParseResult {
  bool valid = false;
  JsonValue value;
  // Populated when !valid: byte offset plus 1-based line:column of the
  // first error, so corrupt record logs and fault plans are diagnosable by eye.
  std::size_t error_offset = 0;
  std::size_t error_line = 0;
  std::size_t error_column = 0;
  std::string error;
};

// Parse `text` into a JsonValue tree. Same strict grammar as LintJson,
// hardened further for hostile/corrupt input (record logs, fault plans):
// duplicate object keys and numbers that overflow double (e.g. 1e999) are
// rejected rather than silently accepted, and nesting past the shared depth
// limit fails cleanly. LintJson validates this repo's own exporters and
// intentionally stays lenient about duplicates.
JsonParseResult ParseJson(std::string_view text);

// Numbers are doubles, so integers read from JSON are exact only up to 2^53
// in magnitude; the [lo, hi] bounds below must lie within ±kMaxJsonInteger.
inline constexpr std::int64_t kMaxJsonInteger = std::int64_t{1} << 53;

// Checked integer read. Succeeds when `value` is a number with no
// fractional part inside [lo, hi]. Anything else (a non-number, NaN, 2.9,
// 1e30, a negative count) fails with "<field> must be an integer in
// [lo, hi]" in *error (when non-null) instead of being cast: a double cast
// to an integer type it does not fit is undefined behaviour.
bool ReadInteger(const JsonValue& value, std::string_view field, std::int64_t lo,
                 std::int64_t hi, std::int64_t* out, std::string* error);

// Member form of ReadInteger into any integer type that holds [lo, hi]. An
// absent member leaves *out, the caller's default, untouched.
template <typename Int>
bool ReadIntegerOr(const JsonValue& object, std::string_view key, std::int64_t lo,
                   std::int64_t hi, Int* out, std::string* error) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) {
    return true;
  }
  std::int64_t value = 0;
  if (!ReadInteger(*member, key, lo, hi, &value, error)) {
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

}  // namespace wdmlat::obs

#endif  // SRC_OBS_JSON_H_
