#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace genfv::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return std::string(text.substr(begin, end - begin));
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool contains(std::string_view text, std::string_view needle) noexcept {
  return text.find(needle) != std::string_view::npos;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string hex_literal(std::uint64_t value, unsigned width) {
  const std::uint64_t mask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u'h%llx", width,
                static_cast<unsigned long long>(value & mask));
  return buf;
}

std::string bin_string(std::uint64_t value, unsigned width) {
  std::string out(width, '0');
  for (unsigned i = 0; i < width; ++i) {
    if ((value >> (width - 1 - i)) & 1ULL) out[i] = '1';
  }
  return out;
}

std::string format_duration(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  }
  return buf;
}

}  // namespace genfv::util
