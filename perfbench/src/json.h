// Minimal JSON object writer for the benchmark's one-line records.
#pragma once

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Builds one flat-or-nested JSON object as a string. Keys are emitted in
/// insertion order; doubles keep all 17 significant digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    return raw(key, format(value));
  }
  JsonObject& num(const std::string& key, std::optional<double> value) {
    return raw(key, value ? format(*value) : "null");
  }
  JsonObject& integer(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& numbers(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += format(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& object(const std::string& key, const JsonObject& value) {
    return raw(key, value.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + value;
    return *this;
  }
  static std::string format(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::string body_;
};

}  // namespace perfbench
