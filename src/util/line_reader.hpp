#pragma once

/// \file line_reader.hpp
/// The strict token layer under genfv's line formats: AIGER's ASCII
/// sections, BTOR2 and DIMACS read their input through one `LineReader`.
///
/// Lines are numbered from 1 and split into tokens on space, tab and CR, so
/// a CRLF file reads like an LF one. Numbers are whole decimals checked for
/// overflow: a sign, a fraction or a trailing letter is an error, never a
/// prefix read. Every failure is a `ParseError` located at `<where>:<line>`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace genfv::util {

/// Non-empty tokens of `line`, split on space, tab and CR.
std::vector<std::string_view> split_tokens(std::string_view line);

class LineReader {
 public:
  /// `where` names the input in every error ("design.aag", "dimacs").
  LineReader(std::string_view text, std::string where)
      : text_(text), where_(std::move(where)) {}

  bool eof() const noexcept { return pos_ >= text_.size(); }

  /// The next line, without its '\n'.
  std::string_view next_line();

  /// Number of the line `next_line` returned last (0 before the first).
  std::size_t line() const noexcept { return line_; }

  /// Byte offset of the next unread line. A format with a binary section
  /// (AIGER's gates) decodes it from here and resumes lines with `seek`;
  /// the bytes it skips do not count as lines.
  std::size_t offset() const noexcept { return pos_; }
  void seek(std::size_t offset) noexcept { pos_ = offset; }

  /// Throw ParseError located at `<where>:<line>` (the current line when
  /// none is given).
  [[noreturn]] void fail(const std::string& message) const { fail_at(line_, message); }
  [[noreturn]] void fail_at(std::size_t line, const std::string& message) const;

  /// `token` as a whole decimal in [0, 2^64); anything else fails at the
  /// current line: "missing <what>", "non-numeric <what> '<token>'" or
  /// "<what> '<token>' overflows".
  std::uint64_t parse_uint(std::string_view token, const char* what) const;

 private:
  std::string_view text_;
  std::string where_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

}  // namespace genfv::util
