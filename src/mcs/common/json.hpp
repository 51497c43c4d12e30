/// \file json.hpp
/// \brief JSON string escaping shared by every layer that emits JSON text
/// (flow reports, obs exports, the server protocol, bench rows).

#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mcs {

/// Appends \p s to \p out with JSON string escaping (quotes not included).
/// Control characters are emitted as \u00XX so any byte sequence
/// round-trips through a single protocol line.
inline void append_json_escaped(std::string& out, std::string_view s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
}

/// Convenience: "..." with escaping.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

}  // namespace mcs
