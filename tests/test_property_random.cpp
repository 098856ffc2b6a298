/// Cross-engine property tests over randomly generated transition systems:
/// the strongest soundness evidence in the suite. For each random design we
/// check agreement between the SAT-based engines and the reference
/// simulator:
///   * every BMC counterexample replays concretely and violates the property
///     exactly at the reported frame;
///   * every k-induction "proven" verdict survives long random simulation;
///   * every k-induction base-case counterexample is a real reset execution;
///   * the unrolled SAT encoding of a whole random system agrees with the
///     simulator frame by frame when inputs are pinned.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "mc/bmc.hpp"
#include "mc/kinduction.hpp"
#include "mc/pdr/pdr.hpp"
#include "mc/unroller.hpp"
#include "sat/solver.hpp"
#include "sim/random_sim.hpp"
#include "util/rng.hpp"

namespace genfv {
namespace {

using ir::NodeRef;

/// Random synchronous design generator: a few registers with random widths,
/// random update networks over registers/inputs/constants, constant inits.
struct RandomSystem {
  ir::TransitionSystem ts;
  std::vector<NodeRef> pool;  // expression pool for property construction

  explicit RandomSystem(util::Xoshiro256& rng) {
    auto& nm = ts.nm();
    const unsigned width = 2 + static_cast<unsigned>(rng.below(6));  // 2..7 bits
    const std::size_t num_inputs = 1 + rng.below(2);
    const std::size_t num_states = 2 + rng.below(3);

    std::vector<NodeRef> leaves;
    for (std::size_t i = 0; i < num_inputs; ++i) {
      leaves.push_back(ts.add_input("in" + std::to_string(i), width));
    }
    std::vector<NodeRef> states;
    for (std::size_t i = 0; i < num_states; ++i) {
      const NodeRef s = ts.add_state("r" + std::to_string(i), width);
      ts.set_init(s, nm.mk_const(rng.bits(width), width));
      states.push_back(s);
      leaves.push_back(s);
    }

    auto random_leaf = [&]() -> NodeRef {
      if (rng.chance(0.2)) return nm.mk_const(rng.bits(width), width);
      return leaves[rng.index(leaves.size())];
    };
    auto random_expr = [&](int depth) -> NodeRef {
      NodeRef acc = random_leaf();
      for (int d = 0; d < depth; ++d) {
        const NodeRef other = random_leaf();
        switch (rng.below(7)) {
          case 0: acc = nm.mk_add(acc, other); break;
          case 1: acc = nm.mk_sub(acc, other); break;
          case 2: acc = nm.mk_and(acc, other); break;
          case 3: acc = nm.mk_or(acc, other); break;
          case 4: acc = nm.mk_xor(acc, other); break;
          case 5: acc = nm.mk_ite(nm.mk_bool(random_leaf()), acc, other); break;
          default: acc = nm.mk_not(acc); break;
        }
      }
      return acc;
    };

    for (const NodeRef s : states) {
      ts.set_next(s, random_expr(2 + static_cast<int>(rng.below(3))));
      pool.push_back(s);
    }
    pool.push_back(random_expr(2));
  }

  /// A width-1 property over the pool (may be true or false of the design).
  NodeRef random_property(util::Xoshiro256& rng) {
    auto& nm = ts.nm();
    const NodeRef a = pool[rng.index(pool.size())];
    const NodeRef b = rng.chance(0.5) ? pool[rng.index(pool.size())]
                                      : nm.mk_const(rng.bits(a->width()), a->width());
    switch (rng.below(4)) {
      case 0: return nm.mk_ne(a, nm.mk_resize(b, a->width()));
      case 1: return nm.mk_ule(a, nm.mk_resize(b, a->width()));
      case 2: return nm.mk_implies(nm.mk_redand(a), nm.mk_redor(a));
      default: return nm.mk_not(nm.mk_eq(a, nm.mk_resize(b, a->width())));
    }
  }
};

class RandomSystems : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSystems, BmcCexesReplayOnTheSimulator) {
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 12; ++instance) {
    RandomSystem sys(rng);
    const NodeRef prop = sys.random_property(rng);
    mc::BmcEngine bmc(sys.ts, {.max_steps = 12});
    const mc::EngineResult result = bmc.prove(prop);
    if (result.verdict != mc::Verdict::Falsified) continue;
    ASSERT_TRUE(result.cex.has_value());
    const sim::Trace& cex = *result.cex;
    // The trace is a genuine execution...
    ASSERT_TRUE(cex.is_consistent()) << "instance " << instance;
    // ...starting from the initial states...
    for (const auto& s : sys.ts.states()) {
      if (s.init != nullptr) {
        ASSERT_EQ(cex.value(s.var, 0), s.init->value());
      }
    }
    // ...violating the property exactly at the reported depth, not before.
    ASSERT_EQ(cex.value(prop, cex.size() - 1), 0u);
    for (std::size_t f = 0; f + 1 < cex.size(); ++f) {
      ASSERT_EQ(cex.value(prop, f), 1u) << "BMC must return the SHORTEST cex";
    }
  }
}

TEST_P(RandomSystems, InductionProofsSurviveRandomSimulation) {
  util::Xoshiro256 rng(GetParam() ^ 0xABCDEF);
  int proven_count = 0;
  for (int instance = 0; instance < 12; ++instance) {
    RandomSystem sys(rng);
    const NodeRef prop = sys.random_property(rng);
    mc::KInductionEngine engine(sys.ts, {.max_steps = 6, .conflict_budget = 50'000});
    const mc::EngineResult result = engine.prove(prop);
    if (result.verdict == mc::Verdict::Proven) {
      ++proven_count;
      sim::RandomSimulator simulator(sys.ts, rng.next());
      const auto witness = simulator.falsify(prop, 200, 4);
      ASSERT_FALSE(witness.has_value())
          << "engine claimed 'proven' but simulation falsified (instance "
          << instance << ")";
    } else if (result.verdict == mc::Verdict::Falsified) {
      ASSERT_TRUE(result.cex.has_value());
      ASSERT_TRUE(result.cex->is_consistent());
      ASSERT_EQ(result.cex->value(prop, result.cex->size() - 1), 0u);
    }
  }
  // The sweep must actually exercise the 'proven' path.
  EXPECT_GT(proven_count, 0);
}

TEST_P(RandomSystems, BmcAndInductionAgreeOnFalsified) {
  // Any property k-induction falsifies, BMC must falsify at the same depth,
  // and vice versa (both report shortest counterexamples).
  util::Xoshiro256 rng(GetParam() ^ 0x5151);
  for (int instance = 0; instance < 10; ++instance) {
    RandomSystem sys(rng);
    const NodeRef prop = sys.random_property(rng);
    mc::BmcEngine bmc(sys.ts, {.max_steps = 10});
    mc::KInductionEngine kind(sys.ts, {.max_steps = 11, .conflict_budget = 50'000});
    const auto r_bmc = bmc.prove(prop);
    const auto r_kind = kind.prove(prop);
    if (r_bmc.verdict == mc::Verdict::Falsified &&
        r_kind.verdict == mc::Verdict::Falsified) {
      ASSERT_EQ(r_bmc.cex->size(), r_kind.cex->size()) << "instance " << instance;
    }
    if (r_kind.verdict == mc::Verdict::Proven) {
      ASSERT_NE(r_bmc.verdict, mc::Verdict::Falsified) << "instance " << instance;
    }
    if (r_bmc.verdict == mc::Verdict::Falsified && r_bmc.depth <= 10) {
      ASSERT_NE(r_kind.verdict, mc::Verdict::Proven) << "instance " << instance;
    }
  }
}

TEST_P(RandomSystems, PdrAgreesWithBmcAndSimulation) {
  // Unlike BMC/k-induction, PDR concludes Proven on many random designs, so
  // this sweep exercises both verdicts: Proven must survive BMC and random
  // simulation, Falsified must replay concretely and be no shorter than
  // BMC's (shortest) counterexample.
  util::Xoshiro256 rng(GetParam() ^ 0x9D12);
  int proven = 0;
  int falsified = 0;
  for (int instance = 0; instance < 10; ++instance) {
    RandomSystem sys(rng);
    const NodeRef prop = sys.random_property(rng);
    mc::pdr::PdrEngine pdr(sys.ts, {.max_steps = 12, .conflict_budget = 50'000});
    const mc::EngineResult r = pdr.prove(prop);
    mc::BmcEngine bmc(sys.ts, {.max_steps = 14});
    const mc::EngineResult r_bmc = bmc.prove(prop);

    if (r.verdict == mc::Verdict::Proven) {
      ++proven;
      ASSERT_NE(r_bmc.verdict, mc::Verdict::Falsified) << "instance " << instance;
      sim::RandomSimulator simulator(sys.ts, rng.next());
      ASSERT_FALSE(simulator.falsify(prop, 200, 4).has_value())
          << "PDR claimed 'proven' but simulation falsified (instance " << instance
          << ")";
    } else if (r.verdict == mc::Verdict::Falsified) {
      ++falsified;
      ASSERT_TRUE(r.cex.has_value());
      ASSERT_TRUE(r.cex->is_consistent()) << "instance " << instance;
      ASSERT_EQ(r.cex->value(prop, r.cex->size() - 1), 0u) << "instance " << instance;
      // ... and the replay starts from the initial states.
      for (const auto& s : sys.ts.states()) {
        if (s.init != nullptr) {
          ASSERT_EQ(r.cex->value(s.var, 0), s.init->value()) << "instance " << instance;
        }
      }
      // PDR counterexamples need not be shortest (obligation chains can
      // outgrow the frontier); when BMC's bound covers one, it must agree
      // with a no-longer counterexample.
      if (r.cex->size() <= 15) {
        ASSERT_EQ(r_bmc.verdict, mc::Verdict::Falsified) << "instance " << instance;
        ASSERT_LE(r_bmc.cex->size(), r.cex->size()) << "instance " << instance;
      }
    }
  }
  EXPECT_GT(proven + falsified, 0);
}

TEST_P(RandomSystems, UnrolledEncodingMatchesSimulatorFrameByFrame) {
  // Pin all inputs of all frames to random values via assumptions; the SAT
  // model of every state bit must equal the simulator's trajectory.
  util::Xoshiro256 rng(GetParam() ^ 0x777);
  for (int instance = 0; instance < 8; ++instance) {
    RandomSystem sys(rng);
    constexpr std::size_t kFrames = 6;

    sat::Solver solver;
    mc::Unroller unroller(sys.ts, solver, mc::FrameZero::Init);
    unroller.extend_to(kFrames);

    // Simulator reference run with concrete inputs.
    sim::Assignment state;
    for (const auto& s : sys.ts.states()) state[s.var] = s.init->value();
    std::vector<sim::Assignment> frames;
    std::vector<sat::Lit> assumptions;
    for (std::size_t f = 0; f <= kFrames; ++f) {
      sim::Assignment env = state;
      for (const NodeRef in : sys.ts.inputs()) {
        const std::uint64_t v = rng.bits(in->width());
        env[in] = v;
        const auto& bits = unroller.bits_at(in, f);
        for (unsigned i = 0; i < in->width(); ++i) {
          assumptions.push_back(bits[i] ^ !((v >> i) & 1ULL));
        }
      }
      frames.push_back(env);
      state = sim::step(sys.ts, env);
    }

    ASSERT_EQ(solver.solve(assumptions), sat::LBool::True);
    for (std::size_t f = 0; f <= kFrames; ++f) {
      for (const auto& s : sys.ts.states()) {
        ASSERT_EQ(unroller.model_value(s.var, f), frames[f].at(s.var))
            << "instance " << instance << " state " << s.var->name() << " frame " << f;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems,
                         ::testing::Values(11, 23, 37, 59, 71, 97));

}  // namespace
}  // namespace genfv
