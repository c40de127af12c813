// JSON string escaping shared by the trace exporters and the result writer:
// quotes, backslash and control characters; every other byte passes through.
#pragma once

#include <string>
#include <string_view>

namespace cmcp {

inline void append_json_escaped(std::string& out, std::string_view text) {
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(ch >> 4) & 0xf];
          out += hex[ch & 0xf];
        } else {
          out += ch;
        }
    }
  }
}

/// `text` escaped and wrapped in double quotes.
inline std::string json_quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  append_json_escaped(out, text);
  out += '"';
  return out;
}

}  // namespace cmcp
