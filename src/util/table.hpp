#pragma once

/// \file table.hpp
/// Aligned plain-text tables for bench output and flow reports. Bench
/// binaries print the same rows the paper's evaluation narrates, so the
/// formatting lives in one place.

#include <string>
#include <vector>

namespace genfv::util {

/// Column-aligned text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with box-drawing separators.
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers used by bench harnesses.
std::string fmt_double(double v, int precision = 2);

}  // namespace genfv::util
