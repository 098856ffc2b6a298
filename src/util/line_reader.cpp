#include "util/line_reader.hpp"

#include "util/status.hpp"

namespace genfv::util {

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::string_view LineReader::next_line() {
  ++line_;
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
  const std::string_view line = text_.substr(start, pos_ - start);
  if (pos_ < text_.size()) ++pos_;  // the '\n'
  return line;
}

void LineReader::fail_at(std::size_t line, const std::string& message) const {
  throw ParseError(where_ + ":" + std::to_string(line), message);
}

std::uint64_t LineReader::parse_uint(std::string_view token, const char* what) const {
  if (token.empty()) fail(std::string("missing ") + what);
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      fail(std::string("non-numeric ") + what + " '" + std::string(token) + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      fail(std::string(what) + " '" + std::string(token) + "' overflows");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace genfv::util
