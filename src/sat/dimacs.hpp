#pragma once

/// \file dimacs.hpp
/// DIMACS CNF import/export, used by the test-suite (cross-checking the CDCL
/// solver against brute force on random formulas) and handy for debugging
/// bit-blasted queries offline.

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace genfv::sat {

class Solver;

/// A raw CNF: clauses over 1-based DIMACS variables (negative = negated).
struct Cnf {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;
};

/// Parse DIMACS text. Throws ParseError on malformed input.
Cnf parse_dimacs(const std::string& text);

/// Serialize to DIMACS text.
std::string to_dimacs(const Cnf& cnf);

/// Load `cnf` into `solver` (creates variables as needed); the literal
/// mapping is implicit: DIMACS var i -> solver var i-1.
/// Returns false if the solver became UNSAT while loading.
bool load_cnf(const Cnf& cnf, Solver& solver);

}  // namespace genfv::sat
