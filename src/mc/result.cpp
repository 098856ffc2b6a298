#include "mc/result.hpp"

#include "sat/solver.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc {

ir::NodeRef conjoin_properties(const ir::TransitionSystem& ts,
                               const std::vector<ir::NodeRef>& properties) {
  GENFV_ASSERT(!properties.empty(), "prove_all requires at least one property");
  auto nm = ts.nm_ptr();
  ir::NodeRef prop = nm->mk_true();
  for (const ir::NodeRef p : properties) {
    GENFV_ASSERT(p->width() == 1, "property must have width 1");
    prop = nm->mk_and(prop, p);
  }
  return prop;
}

void EngineStats::absorb(const sat::SolverStats& solver) {
  sat_calls += solver.solves;
  conflicts += solver.conflicts;
  decisions += solver.decisions;
  propagations += solver.propagations;
  restarts += solver.restarts;
  learnt_clauses += solver.learnt_clauses;
  deleted_clauses += solver.deleted_clauses;
  collections += solver.collections;
  collected_clauses += solver.collected_clauses;
  inprocessings += solver.inprocessings;
  subsumed_clauses += solver.subsumed_clauses;
  strengthened_clauses += solver.strengthened_clauses;
  eliminated_vars += solver.eliminated_vars;
  vivified_clauses += solver.vivified_clauses;
}

void EngineStats::absorb(const sat::Solver& solver) {
  absorb(solver.stats());
  cnf_vars += static_cast<std::uint64_t>(solver.num_vars());
  cnf_clauses += solver.num_clauses();
}

void EngineStats::publish_metrics(const std::string& prefix) const {
  auto& reg = util::metrics();
  for_each_counter(
      [&](const char* name, auto value) {
        reg.counter(prefix + name).add(static_cast<std::uint64_t>(value));
      },
      *this);
  reg.counter(prefix + "seconds_us").add(static_cast<std::uint64_t>(seconds * 1e6));
}

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::Proven: return "proven";
    case Verdict::Falsified: return "falsified";
    case Verdict::Unknown: return "unknown";
  }
  return "?";
}

}  // namespace genfv::mc
