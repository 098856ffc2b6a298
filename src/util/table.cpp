#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

#include "util/status.hpp"

namespace genfv::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  GENFV_ASSERT(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  GENFV_ASSERT(cells.size() == headers_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += ' ' + row[c] + std::string(width[c] - row[c].size(), ' ') + " |";
    }
    return line + '\n';
  };

  std::string rule = "+";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(width[c] + 2, '-') + '+';
  }
  rule += '\n';

  std::string out = rule + render_row(headers_) + rule;
  for (const auto& row : rows_) out += render_row(row);
  out += rule;
  return out;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace genfv::util
