#include "sat/dimacs.hpp"

#include <climits>
#include <cstdlib>
#include <sstream>

#include "sat/solver.hpp"
#include "util/line_reader.hpp"

namespace genfv::sat {

Cnf parse_dimacs(const std::string& text) {
  Cnf cnf;
  int declared_clauses = -1;
  std::size_t problem_line = 0;
  std::vector<int> current;
  util::LineReader lines(text, "dimacs");
  // A header count: a whole decimal in [0, INT_MAX].
  const auto count = [&lines](std::string_view token, const char* what) {
    const std::uint64_t value = lines.parse_uint(token, what);
    if (value > INT_MAX) {
      lines.fail(std::string(what) + " '" + std::string(token) + "' is out of range [0, " +
                 std::to_string(INT_MAX) + "]");
    }
    return static_cast<int>(value);
  };
  while (!lines.eof()) {
    const auto tokens = util::split_tokens(lines.next_line());
    if (tokens.empty() || tokens[0][0] == 'c') continue;
    if (tokens[0][0] == 'p') {
      if (tokens.size() != 4 || tokens[0] != "p" || tokens[1] != "cnf") {
        lines.fail("malformed problem line, want 'p cnf <vars> <clauses>'");
      }
      cnf.num_vars = count(tokens[2], "variable count");
      declared_clauses = count(tokens[3], "clause count");
      problem_line = lines.line();
      continue;
    }
    for (const std::string_view token : tokens) {
      const bool negated = token[0] == '-';
      const std::uint64_t var = lines.parse_uint(negated ? token.substr(1) : token, "literal");
      if (var > static_cast<std::uint64_t>(cnf.num_vars)) {
        lines.fail("literal '" + std::string(token) + "' is out of range [-" +
                   std::to_string(cnf.num_vars) + ", " + std::to_string(cnf.num_vars) + "]");
      }
      if (var == 0) {
        cnf.clauses.push_back(current);
        current.clear();
      } else {
        current.push_back(negated ? -static_cast<int>(var) : static_cast<int>(var));
      }
    }
  }
  if (!current.empty()) lines.fail("unterminated clause at end of input");
  if (declared_clauses >= 0 &&
      cnf.clauses.size() != static_cast<std::size_t>(declared_clauses)) {
    lines.fail_at(problem_line, "clause count mismatch: declared " +
                                    std::to_string(declared_clauses) + ", found " +
                                    std::to_string(cnf.clauses.size()));
  }
  return cnf;
}

std::string to_dimacs(const Cnf& cnf) {
  std::ostringstream out;
  out << "p cnf " << cnf.num_vars << ' ' << cnf.clauses.size() << '\n';
  for (const auto& clause : cnf.clauses) {
    for (const int lit : clause) out << lit << ' ';
    out << "0\n";
  }
  return out.str();
}

bool load_cnf(const Cnf& cnf, Solver& solver) {
  while (solver.num_vars() < cnf.num_vars) solver.new_var();
  for (const auto& clause : cnf.clauses) {
    std::vector<Lit> lits;
    lits.reserve(clause.size());
    for (const int lit : clause) {
      lits.push_back(mk_lit(std::abs(lit) - 1, lit < 0));
    }
    if (!solver.add_clause(std::move(lits))) return false;
  }
  return true;
}

}  // namespace genfv::sat
