#pragma once

/// \file miner.hpp
/// Invariant-mining passes — the analytical "reasoning" of the simulated
/// LLM. Each pass inspects the elaborated design plus a set of sampled
/// reachable states and proposes candidate invariants *as SVA text* (the
/// only thing a language model can emit). Passes are ordered by
/// sophistication; a model profile's `insight` selects a prefix, which is
/// how weaker models mechanically miss the deep (XOR/parity, implication)
/// relations that ECC-style designs need.
///
/// Every proposal is sample-consistent by construction (it holds on all
/// sampled reachable states) — mirroring a competent model that reasons
/// from the design's behaviour. Unsound output enters via the noise layer
/// in SimulatedLlm, not here.

#include <memory>
#include <string>
#include <vector>

#include "sim/random_sim.hpp"
#include "util/rng.hpp"

namespace genfv::genai {

/// A mined candidate, pre-serialization.
struct CandidateInvariant {
  std::string sva;        ///< property text, e.g. "(count1 == count2)"
  std::string rationale;  ///< one-line natural-language justification
  double confidence = 0.5;
  std::string origin;     ///< pass name (for reports/benches)
};

struct MiningContext {
  const ir::TransitionSystem& ts;
  /// Sampled reachable states (frames of random runs from reset).
  const std::vector<sim::Assignment>& samples;
  /// Optional induction-step counterexample frames (Fig. 2 flow).
  const std::vector<sim::Assignment>* cex_frames = nullptr;
  util::Xoshiro256& rng;
};

class InvariantMiner {
 public:
  virtual ~InvariantMiner() = default;
  virtual std::string name() const = 0;
  virtual void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const = 0;
};

/// The standard passes in insight order:
///   0 reset_value, 1 equality, 2 difference, 3 bounds,
///   4 onehot, 5 implication, 6 xor_linear
std::vector<std::unique_ptr<InvariantMiner>> standard_miners();

// --- shared helpers used by the pass implementations ---------------------------

/// Value of a leaf in a sample (0 when the sample lacks the leaf).
std::uint64_t sample_value(const sim::Assignment& sample, ir::NodeRef leaf);

/// Individual pass types (exposed for unit tests).
class ResetValueMiner : public InvariantMiner {
 public:
  std::string name() const override { return "reset_value"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class EqualityMiner : public InvariantMiner {
 public:
  std::string name() const override { return "equality"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class DifferenceMiner : public InvariantMiner {
 public:
  std::string name() const override { return "difference"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class BoundsMiner : public InvariantMiner {
 public:
  std::string name() const override { return "bounds"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class OneHotMiner : public InvariantMiner {
 public:
  std::string name() const override { return "onehot"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class ImplicationMiner : public InvariantMiner {
 public:
  std::string name() const override { return "implication"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

class XorLinearMiner : public InvariantMiner {
 public:
  std::string name() const override { return "xor_linear"; }
  void mine(const MiningContext& ctx, std::vector<CandidateInvariant>& out) const override;
};

}  // namespace genfv::genai
