// Minimal JSON value model and recursive-descent parser.
//
// The observability layer *emits* JSON (metrics snapshots, Chrome
// traces); the schedule-doctor tooling must also *read* it back —
// tamp-report diffs two `tamp-metrics-v1` files, tests round-trip
// verdicts. This is a deliberately small, dependency-free parser for
// that job: full RFC 8259 grammar, object key order preserved, numbers
// held as doubles (one outside double's range is a parse error), parse
// errors reported with byte offsets via runtime_failure. Nesting deeper
// than 256 levels is a parse error, so a hostile file cannot overflow
// the parser's stack.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tamp::obs {

/// One JSON value (null / bool / number / string / array / object).
class JsonValue {
public:
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

  using Array = std::vector<JsonValue>;
  /// Key order preserved (diff output should follow file order).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::boolean), bool_(b) {}
  explicit JsonValue(double v) : kind_(Kind::number), number_(v) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::string), string_(std::move(s)) {}
  explicit JsonValue(Array a) : kind_(Kind::array), array_(std::move(a)) {}
  explicit JsonValue(Object o) : kind_(Kind::object), object_(std::move(o)) {}

  /// Parse a complete JSON document (throws runtime_failure with the
  /// byte offset of the first error; trailing garbage is an error).
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::boolean; }

  /// Typed accessors; throw runtime_failure on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Convenience: member `key` as a number, or `fallback` when absent /
  /// not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;

private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace tamp::obs
