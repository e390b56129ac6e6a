// A minimal JSON writer for the benchmark's result lines. Numbers are
// printed with std::to_chars (shortest round-trip form), so every measured
// digit survives.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return raw(key, std::string(buf, r.ptr));
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  /// `json` must already be a serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench
