#include "mc/portfolio.hpp"

#include <utility>

#include "mc/kinduction.hpp"
#include "mc/pdr/pdr.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc {

PortfolioEngine::PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {}

EngineResult PortfolioEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  // A zero step budget buys no exploration in either stage.
  if (options_.max_steps == 0) return {};
  util::Stopwatch watch;

  EngineResult probe;
  {
    GENFV_TRACE_SPAN("portfolio", "member:k-induction");
    EngineOptions opts = options_;
    opts.max_steps = 1;
    probe = KInductionEngine(ts_, std::move(opts)).prove_all(properties);
  }
  const bool stopped =
      options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed);
  if (probe.verdict != Verdict::Unknown || stopped) {
    if (probe.verdict != Verdict::Unknown) probe.winner = to_string(EngineKind::KInduction);
    probe.stats.seconds = watch.seconds();
    return probe;
  }

  EngineResult out;
  {
    GENFV_TRACE_SPAN("portfolio", "member:pdr");
    out = pdr::PdrEngine(ts_, options_).prove_all(properties);
  }
  if (out.verdict != Verdict::Unknown) {
    out.winner = to_string(EngineKind::Pdr);
  } else {
    out.step_cex = std::move(probe.step_cex);
  }
  out.stats += probe.stats;
  out.stats.seconds = watch.seconds();
  return out;
}

}  // namespace genfv::mc
