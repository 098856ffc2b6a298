#include "mc/result.hpp"

#include <sstream>

#include "sat/solver.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
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
  inprocessings += solver.inprocessings;
  subsumed_clauses += solver.subsumed_clauses;
  strengthened_clauses += solver.strengthened_clauses;
  eliminated_vars += solver.eliminated_vars;
  vivified_clauses += solver.vivified_clauses;
}

void EngineStats::publish_metrics(const std::string& prefix) const {
  auto& reg = util::metrics();
  reg.counter(prefix + "sat_calls").add(sat_calls);
  reg.counter(prefix + "conflicts").add(conflicts);
  reg.counter(prefix + "decisions").add(decisions);
  reg.counter(prefix + "propagations").add(propagations);
  reg.counter(prefix + "restarts").add(restarts);
  reg.counter(prefix + "learnt_clauses").add(learnt_clauses);
  reg.counter(prefix + "deleted_clauses").add(deleted_clauses);
  reg.counter(prefix + "retired_gates").add(retired_gates);
  reg.counter(prefix + "lifted_bits").add(lifted_bits);
  reg.counter(prefix + "lifted_input_bits").add(lifted_input_bits);
  reg.counter(prefix + "inprocessings").add(inprocessings);
  reg.counter(prefix + "subsumed_clauses").add(subsumed_clauses);
  reg.counter(prefix + "strengthened_clauses").add(strengthened_clauses);
  reg.counter(prefix + "eliminated_vars").add(eliminated_vars);
  reg.counter(prefix + "vivified_clauses").add(vivified_clauses);
  reg.counter(prefix + "candidates_seeded").add(candidates_seeded);
  reg.counter(prefix + "candidates_graduated").add(candidates_graduated);
  reg.counter(prefix + "candidates_retracted").add(candidates_retracted);
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

std::string InductionResult::summary() const {
  std::ostringstream out;
  out << to_string(verdict) << " (k=" << k << ", " << stats.sat_calls << " SAT calls, "
      << stats.conflicts << " conflicts, " << util::format_duration(stats.seconds) << ")";
  if (step_cex.has_value()) out << " [induction-step CEX available]";
  return out.str();
}

}  // namespace genfv::mc
