// Recursive-descent JSON parser and value tree — the read side of
// util/json.hpp's streaming writer. Used by the bench-compare tooling to
// consume BenchRecord files; strict (no comments, no trailing commas),
// with a nesting-depth bound so hostile inputs cannot blow the stack.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace opto {

struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// Kind::String payload; for a parsed Kind::Number, its source
  /// spelling (so integers past 2^53 are not lost to the double).
  std::string text;
  std::vector<JsonValue> items;           ///< Kind::Array payload
  /// Kind::Object payload, in document order (duplicate keys keep the
  /// last occurrence on lookup, as most parsers do).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Typed accessors with fallback defaults.
  double as_number(double fallback = 0.0) const;
  std::string as_string(std::string fallback = {}) const;

  /// Member shorthand: number/string at `key`, or the fallback.
  double number_at(std::string_view key, double fallback = 0.0) const;
  std::string string_at(std::string_view key,
                        std::string fallback = {}) const;

  static JsonValue make_object();
  static JsonValue make_array();
  static JsonValue of(double number);
  static JsonValue of(std::string_view text);
  /// Disambiguates literals (const char* would otherwise prefer bool).
  static JsonValue of(const char* text) { return of(std::string_view(text)); }
  static JsonValue of(bool boolean);

  /// Appends (or does not deduplicate) an object member.
  JsonValue& add_member(std::string_view key, JsonValue value);
};

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when `error` is
/// non-null, a byte-offset-annotated message.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

/// Serializes a value tree. `sorted_keys` emits object members in
/// lexicographic key order — the canonical form the determinism CI job
/// byte-compares. Numbers print like Table::format_number (%.17g for
/// non-integers, plain digits for integral values).
void write_json(std::ostream& os, const JsonValue& value,
                bool sorted_keys = false);

}  // namespace opto
