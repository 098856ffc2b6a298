#include "mc/engine.hpp"

#include <sstream>

#include "mc/bmc.hpp"
#include "mc/kinduction.hpp"
#include "mc/pdr/pdr.hpp"
#include "mc/portfolio.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace genfv::mc {

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Bmc: return "bmc";
    case EngineKind::KInduction: return "k-induction";
    case EngineKind::Pdr: return "pdr";
    case EngineKind::Portfolio: return "portfolio";
  }
  return "?";
}

std::optional<EngineKind> engine_kind_from_string(const std::string& name) {
  if (name == "bmc") return EngineKind::Bmc;
  if (name == "kind" || name == "kinduction" || name == "k-induction") {
    return EngineKind::KInduction;
  }
  if (name == "pdr" || name == "ic3") return EngineKind::Pdr;
  if (name == "portfolio") return EngineKind::Portfolio;
  return std::nullopt;
}

std::size_t auto_pdr_workers(const ir::TransitionSystem&) noexcept { return 1; }

std::string EngineResult::summary() const {
  std::ostringstream out;
  out << to_string(verdict) << " (depth=" << depth << ", " << stats.sat_calls
      << " SAT calls, " << stats.conflicts << " conflicts, "
      << util::format_duration(stats.seconds) << ")";
  if (!winner.empty()) out << " [winner=" << winner << "]";
  if (step_cex.has_value()) out << " [induction-step CEX available]";
  if (!invariant.empty()) out << " [" << invariant.size() << "-clause invariant]";
  return out.str();
}

std::string InductionResult::summary() const {
  std::ostringstream out;
  out << to_string(verdict) << " (k=" << k << ", " << stats.sat_calls << " SAT calls, "
      << stats.conflicts << " conflicts, " << util::format_duration(stats.seconds) << ")";
  if (step_cex.has_value()) out << " [induction-step CEX available]";
  return out.str();
}

EngineOptions to_engine_options(const KInductionOptions& options) {
  EngineOptions out;
  out.max_steps = options.max_k;
  out.lemmas = options.lemmas;
  out.sat_backend = options.sat_backend;
  out.sat_inprocess = options.sat_inprocess;
  out.drat_path = options.drat_path;
  return out;
}

InductionResult to_induction_result(const EngineResult& result) {
  InductionResult out;
  out.verdict = result.verdict;
  out.k = result.depth;
  out.base_cex = result.cex;
  out.step_cex = result.step_cex;
  out.invariant = result.invariant;
  out.stats = result.stats;
  return out;
}

std::unique_ptr<Engine> make_engine(EngineKind kind, const ir::TransitionSystem& ts,
                                    const EngineOptions& options) {
  switch (kind) {
    case EngineKind::Bmc: return std::make_unique<BmcEngine>(ts, options);
    case EngineKind::KInduction: return std::make_unique<KInductionEngine>(ts, options);
    case EngineKind::Pdr: return std::make_unique<pdr::PdrEngine>(ts, options);
    case EngineKind::Portfolio: return std::make_unique<PortfolioEngine>(ts, options);
  }
  throw UsageError("unknown engine kind");
}

}  // namespace genfv::mc
