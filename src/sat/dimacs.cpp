#include "sat/dimacs.hpp"

#include <charconv>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "sat/solver.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace genfv::sat {

namespace {

/// `token` as a whole int in [lo, hi]; anything else (trailing junk, a
/// number out of range) throws ParseError naming the token.
int parse_int(const std::string& token, int lo, int hi, const char* what) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || stop != end || value < lo || value > hi) {
    throw ParseError("dimacs: bad " + std::string(what) + " '" + token +
                     "' (want a whole integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "])");
  }
  return value;
}

}  // namespace

Cnf parse_dimacs(const std::string& text) {
  Cnf cnf;
  int declared_clauses = -1;
  std::istringstream in(text);
  std::string line;
  std::vector<int> current;
  while (std::getline(in, line)) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == 'c') continue;
    if (trimmed[0] == 'p') {
      const auto fields = util::split_ws(trimmed);
      if (fields.size() != 4 || fields[1] != "cnf") {
        throw ParseError("dimacs: malformed problem line: " + trimmed);
      }
      cnf.num_vars = parse_int(fields[2], 0, INT_MAX, "variable count");
      declared_clauses = parse_int(fields[3], 0, INT_MAX, "clause count");
      continue;
    }
    for (const auto& token : util::split_ws(trimmed)) {
      const int lit = parse_int(token, -cnf.num_vars, cnf.num_vars, "literal");
      if (lit == 0) {
        cnf.clauses.push_back(current);
        current.clear();
      } else {
        current.push_back(lit);
      }
    }
  }
  if (!current.empty()) throw ParseError("dimacs: unterminated clause");
  if (declared_clauses >= 0 &&
      cnf.clauses.size() != static_cast<std::size_t>(declared_clauses)) {
    throw ParseError("dimacs: clause count mismatch");
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
