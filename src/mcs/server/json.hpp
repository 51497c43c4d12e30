/// \file json.hpp
/// \brief Minimal JSON value type + recursive-descent parser for the job
/// server's newline-delimited protocol.
///
/// The library *emits* JSON in several places (FlowReport::to_json, the obs
/// exports) but never had to *read* it until the server's request protocol;
/// this is the smallest parser that covers that need: objects, arrays,
/// strings (with escapes, incl. basic \uXXXX), numbers, booleans and null,
/// strict whole-input consumption, and descriptive errors with a byte
/// offset.  No external dependencies, no DOM beyond std containers.
/// Object member order is preserved (insertion order), duplicate keys keep
/// the first occurrence on lookup.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mcs/common/json.hpp"

namespace mcs::server {

/// Raised on malformed JSON text and on type-mismatched accessor calls.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses \p text as exactly one JSON value (surrounding whitespace
  /// allowed, trailing junk is an error).  Throws JsonError.
  static Json parse(std::string_view text);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  ///< as_number truncated toward zero
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const noexcept;

  // Construction helpers (used by tests; the server emits JSON as text).
  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(double v);
  static Json string(std::string v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;

  friend class JsonParser;
};

/// Protocol strings are quoted with the library-wide escaper
/// (mcs/common/json.hpp).
using mcs::json_quote;

}  // namespace mcs::server
