#pragma once

/// \file json.hpp
/// Minimal JSON value + parser for the serve protocol (docs/serve.md).
///
/// The protocol is line-delimited JSON, one request/response object per
/// line, so the parser is a small recursive-descent over a single string.
/// Parse failures throw `ParseError` with a byte-offset location
/// ("json:byte 17") so every malformed-request class reported by the server
/// points at the offending byte — same located-error discipline as the
/// AIGER/BTOR2 frontends.
///
/// Arrays and objects nest at most `Json::kMaxDepth` levels deep: the
/// parser recurses once per level, so an unbounded depth would let one
/// request line of `[` characters overflow the stack of the server.
///
/// Numbers are stored as double (the protocol only carries small integers
/// and millisecond durations; 2^53 integer exactness is plenty). Object keys
/// keep insertion order so responses render deterministically.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace genfv::serve {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}          // NOLINT(google-explicit-constructor)
  Json(double n) : kind_(Kind::Number), num_(n) {}       // NOLINT(google-explicit-constructor)
  Json(std::int64_t n) : kind_(Kind::Number), num_(static_cast<double>(n)) {}  // NOLINT(google-explicit-constructor)
  Json(std::uint64_t n) : kind_(Kind::Number), num_(static_cast<double>(n)) {}  // NOLINT(google-explicit-constructor)
  Json(int n) : kind_(Kind::Number), num_(n) {}          // NOLINT(google-explicit-constructor)
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : kind_(Kind::String), str_(s) {}  // NOLINT(google-explicit-constructor)
  Json(JsonArray a) : kind_(Kind::Array), arr_(std::move(a)) {}     // NOLINT(google-explicit-constructor)
  Json(JsonObject o) : kind_(Kind::Object), obj_(std::move(o)) {}   // NOLINT(google-explicit-constructor)

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const JsonArray& as_array() const { return arr_; }
  const JsonObject& as_object() const { return obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* get(const std::string& key) const;

  /// Append/overwrite an object member (builder-style; requires Object or
  /// Null — a null value promotes to an empty object first).
  void set(const std::string& key, Json value);

  /// Compact single-line rendering (no trailing newline). Strings are
  /// escaped per RFC 8259; integral numbers render without a fraction.
  std::string dump() const;

  /// Deepest array/object nesting `parse` accepts.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parse exactly one JSON value from `text` (surrounding whitespace
  /// allowed, trailing garbage rejected, at most kMaxDepth levels of
  /// nesting). Throws ParseError, located as "json:byte N".
  static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonObject obj_;
};

}  // namespace genfv::serve
