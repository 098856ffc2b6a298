#include "sat/drat.hpp"

namespace genfv::sat {

DratWriter::DratWriter(std::string base) : base_(std::move(base)) {
  drat_.open(base_ + ".drat", std::ios::out | std::ios::trunc);
  // Probe the .cnf path too, so a bad directory surfaces immediately
  // instead of at flush time.
  std::ofstream probe(base_ + ".cnf", std::ios::out | std::ios::trunc);
  ok_ = drat_.is_open() && probe.is_open();
}

DratWriter::~DratWriter() { flush(); }

void DratWriter::append_clause(std::ostream& os, std::span<const Lit> lits) {
  for (const Lit p : lits) {
    const int v = var(p) + 1;  // DIMACS is 1-based
    if (v > max_var_) max_var_ = v;
    os << (sign(p) ? -v : v) << ' ';
  }
  os << "0\n";
}

void DratWriter::input_clause(std::span<const Lit> lits) {
  if (!ok_) return;
  append_clause(cnf_body_, lits);
  ++cnf_clauses_;
}

void DratWriter::add(std::span<const Lit> lits) {
  if (!ok_) return;
  append_clause(drat_, lits);
}

void DratWriter::remove(std::span<const Lit> lits) {
  if (!ok_) return;
  drat_ << "d ";
  append_clause(drat_, lits);
}

void DratWriter::flush() {
  if (!ok_) return;
  std::ofstream cnf(base_ + ".cnf", std::ios::out | std::ios::trunc);
  if (cnf.is_open()) {
    cnf << "p cnf " << max_var_ << ' ' << cnf_clauses_ << '\n';
    cnf << cnf_body_.str();
  }
  drat_.flush();
}

}  // namespace genfv::sat
