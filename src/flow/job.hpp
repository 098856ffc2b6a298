#pragma once

/// \file job.hpp
/// One verification job as every entry point describes it: where the task
/// comes from (`JobSource`) and how it runs (`JobSpec`). The shipped
/// defaults are declared here and nowhere else: `JobSpec::cli()` is what
/// `genfv_cli` runs without flags, `JobSpec::server()` what `genfv_serve`
/// runs for a request that names no engine or bound. Flags and request
/// fields override one of the two.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flow/report.hpp"
#include "flow/session.hpp"
#include "mc/engine.hpp"
#include "util/status.hpp"

namespace genfv::flow {

/// A zoo design, a design file, or RTL text with SVA targets.
struct JobSource {
  enum class Kind { Design, File, Rtl };
  Kind kind = Kind::Design;
  std::string name;  ///< zoo name, file path, or (Rtl) the task's name
  std::string rtl;                  ///< Rtl only: SystemVerilog text
  std::vector<TargetSpec> targets;  ///< Rtl only: SVA targets
  /// Target names to keep, in this order; empty keeps every target.
  std::vector<std::string> select;

  static JobSource design(std::string name, std::vector<std::string> select = {}) {
    return {Kind::Design, std::move(name), {}, {}, std::move(select)};
  }
  static JobSource file(std::string path, std::vector<std::string> select = {}) {
    return {Kind::File, std::move(path), {}, {}, std::move(select)};
  }
  static JobSource rtl_text(std::string name, std::string rtl, std::vector<TargetSpec> targets) {
    return {Kind::Rtl, std::move(name), std::move(rtl), std::move(targets), {}};
  }
};

/// build_task's error when a selected target name is not in the source.
class UnknownTargetError : public UsageError {
 public:
  using UsageError::UsageError;
};

/// Elaborate `source` and apply its selection. Loader errors propagate; a
/// missing name throws UnknownTargetError listing the names the source has.
/// The task may have no targets; what that means is the caller's to say.
VerificationTask build_task(const JobSource& source);

/// `cex` is the paper's Fig. 2 loop, `helper` Fig. 1, `direct` the LLM-free
/// miner, `plain` the engine alone.
enum class FlowKind { Cex, Helper, Direct, Plain };

/// "cex" | "helper" | "direct" | "plain"; nullopt for anything else.
std::optional<FlowKind> flow_kind_from_string(const std::string& name);

/// How a job runs. `max_steps` is the engine bound: BMC depth, induction k,
/// PDR frames. `model` and `seed` drive the simulated LLM (and the direct
/// miner's sampling); `sim_screen` is the review gate's simulation screen.
struct JobSpec {
  JobSource source;
  FlowKind flow;
  mc::EngineKind engine;
  std::size_t max_steps;
  std::string model;
  std::uint64_t seed;
  bool sim_screen;

  /// `genfv_cli` without flags: the Fig. 2 repair loop.
  static JobSpec cli() {
    JobSpec spec;
    spec.flow = FlowKind::Cex;
    spec.engine = mc::EngineKind::KInduction;
    spec.max_steps = 8;
    spec.model = "gpt-4o";
    spec.seed = 42;
    spec.sim_screen = true;
    return spec;
  }

  /// `genfv_serve` for a request without "engine" or "max_k": PDR alone.
  static JobSpec server() {
    JobSpec spec = cli();
    spec.flow = FlowKind::Plain;
    spec.engine = mc::EngineKind::Pdr;
    spec.max_steps = 32;
    return spec;
  }

 private:
  JobSpec() = default;
};

/// Run `spec`'s lemma flow on `task` (the caller built it; `spec.source` is
/// not read), with `lemmas` assumed by every proof and DRAT logging to
/// `drat_path` ("" for none). The plain flow has no lemma loop: its callers
/// run the engine themselves, and here it throws UsageError.
FlowReport run_flow(const JobSpec& spec, VerificationTask& task,
                    std::vector<ir::NodeRef> lemmas = {}, const std::string& drat_path = "");

}  // namespace genfv::flow
