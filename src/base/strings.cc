#include "src/base/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace plan9 {

std::vector<std::string> GetFields(std::string_view s, std::string_view delims,
                                   bool collapse) {
  std::vector<std::string> out;
  size_t start = 0;
  size_t i = 0;
  auto is_delim = [&](char c) { return delims.find(c) != std::string_view::npos; };
  for (; i < s.size(); i++) {
    if (is_delim(s[i])) {
      if (!collapse || i > start) {
        out.emplace_back(s.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  if (!collapse || i > start) {
    out.emplace_back(s.substr(start, i - start));
  }
  if (!collapse && out.empty()) {
    out.emplace_back("");
  }
  return out;
}

std::vector<std::string> Tokenize(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
      i++;
    }
    if (i >= s.size()) {
      break;
    }
    std::string tok;
    if (s[i] == '\'') {
      // rc-style quoting: '...' with '' as an escaped quote.
      i++;
      while (i < s.size()) {
        if (s[i] == '\'') {
          if (i + 1 < s.size() && s[i + 1] == '\'') {
            tok.push_back('\'');
            i += 2;
            continue;
          }
          i++;
          break;
        }
        tok.push_back(s[i++]);
      }
    } else {
      while (i < s.size() && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r') {
        tok.push_back(s[i++]);
      }
    }
    out.push_back(std::move(tok));
  }
  return out;
}

std::string_view TrimSpace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\n' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<uint64_t> ParseU64(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

std::optional<int64_t> ParseI64(std::string_view s) {
  bool neg = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    neg = s[0] == '-';
    s.remove_prefix(1);
  }
  auto u = ParseU64(s);
  if (!u) {
    return std::nullopt;
  }
  int64_t v = static_cast<int64_t>(*u);
  return neg ? -v : v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); i++) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string CleanName(std::string_view path) {
  if (path.empty()) {
    return ".";
  }
  std::string prefix;
  bool rooted = false;
  if (path[0] == '#') {
    // Device paths: `#l/ether0` — the device specifier is opaque.
    size_t slash = path.find('/');
    if (slash == std::string_view::npos) {
      return std::string(path);
    }
    prefix = std::string(path.substr(0, slash));
    path.remove_prefix(slash);
  }
  if (!path.empty() && path[0] == '/') {
    rooted = true;
  }
  std::vector<std::string> parts;
  for (auto& part : GetFields(path, "/")) {
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (!parts.empty() && parts.back() != "..") {
        parts.pop_back();
      } else if (!rooted && prefix.empty()) {
        parts.emplace_back("..");
      }
      continue;
    }
    parts.push_back(part);
  }
  std::string out = prefix;
  if (rooted) {
    out.push_back('/');
  }
  out += Join(parts, "/");
  if (out.empty()) {
    return ".";
  }
  return out;
}

}  // namespace plan9
