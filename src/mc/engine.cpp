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

EngineOptions to_engine_options(const KInductionOptions& options) {
  EngineOptions out;
  out.max_steps = options.max_k;
  out.simple_path = options.simple_path;
  out.lemmas = options.lemmas;
  out.conflict_budget = options.conflict_budget;
  out.stop = options.stop;
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

namespace {

class BmcEngineAdapter final : public Engine {
 public:
  BmcEngineAdapter(const ir::TransitionSystem& ts, const EngineOptions& options)
      : ts_(ts), options_(options) {}

  EngineKind kind() const noexcept override { return EngineKind::Bmc; }
  std::string name() const override { return "bmc"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override {
    BmcOptions opts;
    opts.max_depth = options_.max_steps;
    opts.lemmas = options_.lemmas;
    opts.conflict_budget = options_.conflict_budget;
    opts.stop = options_.stop;
    opts.exchange = options_.exchange_mailbox;
    opts.exchange_slot = options_.exchange_slot;
    opts.sat_backend = options_.sat_backend;
    opts.sat_inprocess = options_.sat_inprocess;
    opts.drat_path = options_.drat_path;
    BmcEngine engine(ts_, std::move(opts));
    BmcResult r = engine.check(conjoin_properties(ts_, properties));
    EngineResult out;
    out.verdict = r.verdict;
    out.depth = r.depth;
    out.cex = std::move(r.cex);
    out.stats = r.stats;
    return out;
  }

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

class KInductionEngineAdapter final : public Engine {
 public:
  KInductionEngineAdapter(const ir::TransitionSystem& ts, const EngineOptions& options)
      : ts_(ts), options_(options) {}

  EngineKind kind() const noexcept override { return EngineKind::KInduction; }
  std::string name() const override { return "k-induction"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override {
    KInductionOptions opts;
    opts.max_k = options_.max_steps;
    opts.simple_path = options_.simple_path;
    opts.lemmas = options_.lemmas;
    opts.conflict_budget = options_.conflict_budget;
    opts.stop = options_.stop;
    opts.exchange = options_.exchange_mailbox;
    opts.exchange_slot = options_.exchange_slot;
    opts.sat_backend = options_.sat_backend;
    opts.sat_inprocess = options_.sat_inprocess;
    opts.drat_path = options_.drat_path;
    KInductionEngine engine(ts_, std::move(opts));
    InductionResult r = engine.prove_all(properties);
    EngineResult out;
    out.verdict = r.verdict;
    out.depth = r.k;
    out.cex = std::move(r.base_cex);
    out.step_cex = std::move(r.step_cex);
    out.invariant = std::move(r.invariant);
    out.stats = r.stats;
    return out;
  }

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

class PdrEngineAdapter final : public Engine {
 public:
  PdrEngineAdapter(const ir::TransitionSystem& ts, const EngineOptions& options)
      : ts_(ts), options_(options) {}

  EngineKind kind() const noexcept override { return EngineKind::Pdr; }
  std::string name() const override { return "pdr"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override {
    pdr::PdrOptions opts;
    opts.max_frames = options_.max_steps;
    opts.lemmas = options_.lemmas;
    opts.conflict_budget = options_.conflict_budget;
    opts.stop = options_.stop;
    opts.exchange = options_.exchange_mailbox;
    opts.exchange_slot = options_.exchange_slot;
    opts.seed_candidates = options_.pdr_seed_candidates;
    opts.candidate_lemmas = options_.pdr_candidate_lemmas;
    opts.sat_backend = options_.sat_backend;
    opts.sat_inprocess = options_.sat_inprocess;
    opts.drat_path = options_.drat_path;
    pdr::PdrEngine engine(ts_, std::move(opts));
    pdr::PdrResult r = engine.prove_all(properties);
    EngineResult out;
    out.verdict = r.verdict;
    out.depth = r.depth;
    out.cex = std::move(r.cex);
    out.invariant = std::move(r.invariant);
    out.stats = r.stats;
    return out;
  }

 private:
  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace

std::unique_ptr<Engine> make_engine(EngineKind kind, const ir::TransitionSystem& ts,
                                    const EngineOptions& options) {
  switch (kind) {
    case EngineKind::Bmc: return std::make_unique<BmcEngineAdapter>(ts, options);
    case EngineKind::KInduction:
      return std::make_unique<KInductionEngineAdapter>(ts, options);
    case EngineKind::Pdr: return std::make_unique<PdrEngineAdapter>(ts, options);
    case EngineKind::Portfolio: return std::make_unique<PortfolioEngine>(ts, options);
  }
  throw UsageError("unknown engine kind");
}

}  // namespace genfv::mc
