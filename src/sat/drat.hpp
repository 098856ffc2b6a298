#pragma once

/// \file drat.hpp
/// DRAT proof logging for the CDCL core.
///
/// A proof run produces two files from one `base` path:
///  * `<base>.cnf`  — every clause the caller added, verbatim, as a DIMACS
///    CNF (the formula the proof is *about*);
///  * `<base>.drat` — the derivation: one `add` line per clause the solver
///    derived (learnt clauses, inprocessing resolvents, strengthened and
///    vivified clauses, failed-assumption cores, and — on a global UNSAT —
///    the empty clause), plus `d` deletion lines for retired *learnt*
///    clauses only.
///
/// Deletion discipline: original clauses removed by inprocessing
/// (subsumption, variable elimination) are never deleted from the proof.
/// They stay in the checker's active set — harmless extra clauses — which
/// keeps the log a plain DRAT stream (no extension lines) and means
/// restoring an eliminated variable on re-import needs no proof traffic at
/// all. Every emitted `add` is RUP, so the standard forward checker
/// (`scripts/check_drat.py`, or drat-trim) validates the log.
///
/// The `.cnf` header needs the final variable/clause counts, so the input
/// clauses are buffered and the file is (re)written on flush; the `.drat`
/// stream is written through directly.

#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "sat/types.hpp"

namespace genfv::sat {

class DratWriter {
 public:
  /// Opens `<base>.drat` for streaming; `<base>.cnf` is written on flush().
  explicit DratWriter(std::string base);
  ~DratWriter();

  DratWriter(const DratWriter&) = delete;
  DratWriter& operator=(const DratWriter&) = delete;

  /// False when either file could not be opened; the writer then drops
  /// every line silently (callers keep solving, they just get no proof).
  bool ok() const noexcept { return ok_; }

  /// Record a caller-supplied clause into `<base>.cnf`.
  void input_clause(std::span<const Lit> lits);

  /// Record a derived (RUP) clause into `<base>.drat`.
  void add(std::span<const Lit> lits);
  void add_empty() { add({}); }

  /// Record the deletion of a (learnt) clause.
  void remove(std::span<const Lit> lits);

  /// Write `<base>.cnf` (header + buffered clauses) and flush the proof
  /// stream. Called from the destructor; idempotent.
  void flush();

 private:
  void append_clause(std::ostream& os, std::span<const Lit> lits);

  std::string base_;
  bool ok_ = false;
  std::ostringstream cnf_body_;
  std::size_t cnf_clauses_ = 0;
  int max_var_ = 0;  // 1-based DIMACS
  std::ofstream drat_;
};

}  // namespace genfv::sat
