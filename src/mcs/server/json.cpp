#include "mcs/server/json.hpp"

#include <cctype>
#include <charconv>

namespace mcs::server {

namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw JsonError("json: " + what + " at offset " + std::to_string(at));
}

}  // namespace

/// Single-pass recursive-descent parser over a string_view.  Depth is
/// bounded so hostile input cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json::string(string_token());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return Json::null();
        fail(pos_, "invalid literal");
      default: return number_token();
    }
  }

  Json object(int depth) {
    Json out;
    out.type_ = Json::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail(pos_, "expected object key");
      std::string key = string_token();
      skip_ws();
      if (peek() != ':') fail(pos_, "expected ':'");
      ++pos_;
      out.obj_.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  Json array(int depth) {
    Json out;
    out.type_ = Json::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.arr_.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string string_token() {
    ++pos_;  // opening quote
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "invalid \\u escape");
          }
          // Encode as UTF-8.  Surrogate pairs are not combined (the
          // protocol only ever escapes control bytes); lone surrogates
          // are rejected rather than emitted as invalid UTF-8.
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail(pos_ - 4, "surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail(pos_ - 1, "invalid escape");
      }
    }
  }

  Json number_token() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    const auto [p, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc() || p != text_.data() + pos_ || pos_ == start) {
      fail(start, "invalid number");
    }
    return Json::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) { return JsonParser(text).run(); }

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("json: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw JsonError("json: not a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw JsonError("json: not an array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) throw JsonError("json: not an object");
  return obj_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace mcs::server
