/// Model-checking engine tests: unroller mechanics, BMC counterexample
/// depth/consistency, k-induction verdicts with and without lemmas, joint
/// (mutual) induction, simple-path constraints, budgets, and the shared
/// EngineOptions reaching BMC, k-induction and PDR alike.

#include <gtest/gtest.h>

#include <filesystem>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "mc/bmc.hpp"
#include "mc/engine.hpp"
#include "sat/solver.hpp"
#include "mc/kinduction.hpp"
#include "mc/unroller.hpp"
#include "sim/random_sim.hpp"

namespace genfv::mc {
namespace {

using ir::NodeRef;

/// Free-running counter of `width` bits.
ir::TransitionSystem free_counter(unsigned width) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef c = ts.add_state("c", width);
  ts.set_init(c, nm.mk_const(0, width));
  ts.set_next(c, nm.mk_add(c, nm.mk_const(1, width)));
  return ts;
}

/// The paper's sync_counters, parameterized width.
ir::TransitionSystem sync_counters(unsigned width) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef c1 = ts.add_state("count1", width);
  const NodeRef c2 = ts.add_state("count2", width);
  ts.set_init(c1, nm.mk_const(0, width));
  ts.set_init(c2, nm.mk_const(0, width));
  ts.set_next(c1, nm.mk_add(c1, nm.mk_const(1, width)));
  ts.set_next(c2, nm.mk_add(c2, nm.mk_const(1, width)));
  return ts;
}

TEST(Unroller, FrameCountAndInit) {
  auto ts = free_counter(4);
  sat::Solver solver;
  Unroller unroller(ts, solver, FrameZero::Init);
  EXPECT_EQ(unroller.frame_count(), 1u);
  unroller.extend_to(3);
  EXPECT_EQ(unroller.frame_count(), 4u);
  const NodeRef c = ts.lookup("c");
  // Started from init, the counter value at frame f is exactly f.
  ASSERT_EQ(solver.solve(), sat::LBool::True);
  for (std::size_t f = 0; f <= 3; ++f) {
    EXPECT_EQ(unroller.model_value(c, f), f);
  }
}

TEST(Unroller, ConstantInitBindsFrameZeroToConstantLiterals) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef a = ts.add_state("a", 4);
  ts.set_init(a, nm.mk_const(0b0101, 4));
  ts.set_next(a, nm.mk_add(a, nm.mk_const(1, 4)));
  sat::Solver solver;
  Unroller unroller(ts, solver, FrameZero::Init);
  const sat::Lit t = solver.true_lit();
  const bitblast::Bits expected{t, ~t, t, ~t};  // LSB first
  EXPECT_EQ(unroller.bits_at(a, 0), expected);
  // With no input in the next-state logic the constants fold forward:
  // frame 1 is 6 without a single solver clause.
  unroller.extend_to(1);
  EXPECT_EQ(unroller.bits_at(a, 1), (bitblast::Bits{~t, t, t, ~t}));
  EXPECT_EQ(solver.num_clauses(), 0u);
}

TEST(Unroller, TraceReportsInitValuesAtFrameZero) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef in = ts.add_input("in", 3);
  const NodeRef acc = ts.add_state("acc", 3);
  ts.set_init(acc, nm.mk_const(5, 3));
  ts.set_next(acc, nm.mk_add(acc, in));
  sat::Solver solver;
  Unroller unroller(ts, solver, FrameZero::Init);
  unroller.extend_to(2);
  ASSERT_EQ(solver.solve({unroller.lit_at(nm.mk_eq(acc, nm.mk_const(0, 3)), 2)}),
            sat::LBool::True);
  const sim::Trace trace = unroller.extract_trace(3);
  EXPECT_EQ(trace.value(acc, 0), 5u);
  EXPECT_EQ(trace.value(acc, 2), 0u);
  EXPECT_TRUE(trace.is_consistent());
}

TEST(Unroller, InitReadingOtherLeavesIsTiedByEquality) {
  // b's init reads state a, c's init reads an input, d has no init: the
  // three keep fresh frame-0 handles, b and c tied to their init bits.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef in = ts.add_input("in", 4);
  const NodeRef a = ts.add_state("a", 4);
  const NodeRef b = ts.add_state("b", 4);
  const NodeRef c = ts.add_state("c", 4);
  const NodeRef d = ts.add_state("d", 4);
  ts.set_init(a, nm.mk_const(6, 4));
  ts.set_init(b, nm.mk_add(a, nm.mk_const(1, 4)));
  ts.set_init(c, nm.mk_xor(in, nm.mk_const(0xF, 4)));
  for (const NodeRef s : {a, b, c, d}) ts.set_next(s, s);
  sat::Solver solver;
  Unroller unroller(ts, solver, FrameZero::Init);
  ASSERT_EQ(solver.solve({unroller.lit_at(nm.mk_eq(in, nm.mk_const(3, 4)), 0),
                          unroller.lit_at(nm.mk_eq(d, nm.mk_const(9, 4)), 0)}),
            sat::LBool::True);
  EXPECT_EQ(unroller.model_value(a, 0), 6u);
  EXPECT_EQ(unroller.model_value(b, 0), 7u);
  EXPECT_EQ(unroller.model_value(c, 0), 0xCu);
  EXPECT_EQ(unroller.model_value(d, 0), 9u);
  EXPECT_EQ(solver.solve({unroller.lit_at(nm.mk_ne(b, nm.mk_const(7, 4)), 0)}),
            sat::LBool::False);
}

TEST(Unroller, WithoutInitFrameZeroIsFree) {
  auto ts = free_counter(4);
  sat::Solver solver;
  Unroller unroller(ts, solver);
  unroller.extend_to(1);
  const NodeRef c = ts.lookup("c");
  auto& nm = ts.nm();
  // c@0 == 9 must be satisfiable without init.
  const sat::Lit is9 = unroller.lit_at(nm.mk_eq(c, nm.mk_const(9, 4)), 0);
  ASSERT_EQ(solver.solve({is9}), sat::LBool::True);
  EXPECT_EQ(unroller.model_value(c, 0), 9u);
  EXPECT_EQ(unroller.model_value(c, 1), 10u);  // transition still enforced
}

TEST(Unroller, StatesDifferConstraint) {
  // Hold register: frames can only be equal; forcing distinctness is UNSAT.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef r = ts.add_state("r", 4);
  ts.set_init(r, nm.mk_const(7, 4));
  ts.set_next(r, r);
  sat::Solver solver;
  Unroller unroller(ts, solver);
  unroller.extend_to(1);
  unroller.assert_states_differ(0, 1);
  EXPECT_EQ(solver.solve(), sat::LBool::False);
}

TEST(Bmc, FindsShallowBugAtExactDepth) {
  auto ts = free_counter(6);
  auto& nm = ts.nm();
  const NodeRef c = ts.lookup("c");
  BmcEngine bmc(ts, {.max_steps = 32});
  const EngineResult result = bmc.prove(nm.mk_ne(c, nm.mk_const(13, 6)));
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_EQ(result.depth, 13u);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_EQ(result.cex->size(), 14u);
  EXPECT_TRUE(result.cex->is_consistent());
  EXPECT_EQ(result.cex->value(c, 13), 13u);
}

TEST(Bmc, BoundedOnlyNeverProves) {
  auto ts = free_counter(8);
  auto& nm = ts.nm();
  // True invariant: BMC can only report Unknown within its bound.
  BmcEngine bmc(ts, {.max_steps = 10});
  const EngineResult result =
      bmc.prove(nm.mk_ule(ts.lookup("c"), nm.mk_ones(8)));
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_EQ(result.depth, 10u);
}

TEST(Bmc, RespectsEnvironmentConstraints) {
  // rst constrained low: the reset-triggered bug is unreachable.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef rst = ts.add_input("rst", 1);
  const NodeRef flag = ts.add_state("flag", 1);
  ts.set_init(flag, nm.mk_const(0, 1));
  ts.set_next(flag, nm.mk_or(flag, rst));
  ts.add_constraint(nm.mk_eq(rst, nm.mk_const(0, 1)));
  BmcEngine bmc(ts, {.max_steps = 8});
  EXPECT_EQ(bmc.prove(nm.mk_not(flag)).verdict, Verdict::Unknown);
}

TEST(Bmc, DualAccumulatorFoldsToZeroConflicts) {
  // From reset the two accumulator chains see the same init constants and
  // the same input bits, so the bit-blaster encodes them once and the
  // output equality folds to constant true at every depth: no search at all.
  const auto task = designs::make_task("dual_accumulator");
  BmcEngine bmc(task.ts, {.max_steps = 8});
  const EngineResult result = bmc.prove_all(task.target_exprs());
  EXPECT_EQ(result.verdict, Verdict::Unknown);
  EXPECT_EQ(result.depth, 8u);
  EXPECT_EQ(result.stats.conflicts, 0u);
}

TEST(KInduction, ProvesInductiveInvariantAtKOne) {
  auto ts = sync_counters(16);
  auto& nm = ts.nm();
  const NodeRef helper = nm.mk_eq(ts.lookup("count1"), ts.lookup("count2"));
  KInductionEngine engine(ts, {.max_steps = 4});
  const EngineResult result = engine.prove(helper);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.depth, 1u);
}

TEST(KInduction, PaperTargetNeedsTheLemma) {
  auto ts = sync_counters(16);
  auto& nm = ts.nm();
  const NodeRef c1 = ts.lookup("count1");
  const NodeRef c2 = ts.lookup("count2");
  const NodeRef target = nm.mk_implies(nm.mk_redand(c1), nm.mk_redand(c2));
  const NodeRef helper = nm.mk_eq(c1, c2);

  KInductionEngine without(ts, {.max_steps = 6});
  const EngineResult r1 = without.prove(target);
  EXPECT_EQ(r1.verdict, Verdict::Unknown);
  ASSERT_TRUE(r1.step_cex.has_value());
  // The step CEX satisfies the property on all frames but the last, and
  // violates it at the last — and is NOT a real execution from reset.
  const auto& cex = *r1.step_cex;
  EXPECT_EQ(cex.value(target, cex.size() - 1), 0u);
  for (std::size_t f = 0; f + 1 < cex.size(); ++f) {
    EXPECT_EQ(cex.value(target, f), 1u);
  }
  EXPECT_TRUE(cex.is_consistent());  // it follows the transition relation
  EXPECT_NE(cex.value(c1, 0), cex.value(c2, 0));  // unreachable start

  KInductionEngine with(ts, {.max_steps = 6, .lemmas = {helper}});
  const EngineResult r2 = with.prove(target);
  EXPECT_EQ(r2.verdict, Verdict::Proven);
  EXPECT_EQ(r2.depth, 1u);
}

TEST(KInduction, FalsifiedPropertyYieldsRealBaseCex) {
  auto ts = free_counter(5);
  auto& nm = ts.nm();
  const NodeRef c = ts.lookup("c");
  KInductionEngine engine(ts, {.max_steps = 16});
  const EngineResult result = engine.prove(nm.mk_ne(c, nm.mk_const(6, 5)));
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_TRUE(result.cex->is_consistent());
  EXPECT_EQ(result.cex->value(c, 0), 0u);  // starts at reset
  EXPECT_EQ(result.cex->value(c, result.cex->size() - 1), 6u);
}

TEST(KInduction, HigherKClosesWithoutLemma) {
  // Mod-6 phase counter in 4 bits: garbage phases 6..15 drain back into the
  // legal range within 10 steps, so the audit property is (k=11)-inductive
  // but not 1-inductive. This pins the k-induction depth mechanics.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef phase = ts.add_state("phase", 4);
  const NodeRef bad = ts.add_state("bad", 1);
  ts.set_init(phase, nm.mk_const(0, 4));
  ts.set_init(bad, nm.mk_const(0, 1));
  ts.set_next(phase, nm.mk_ite(nm.mk_eq(phase, nm.mk_const(5, 4)), nm.mk_const(0, 4),
                               nm.mk_add(phase, nm.mk_const(1, 4))));
  // bad latches when phase leaves the legal range right as it wraps to 0.
  ts.set_next(bad, nm.mk_or(bad, nm.mk_ugt(phase, nm.mk_const(14, 4))));
  const NodeRef target = nm.mk_not(bad);

  KInductionEngine small(ts, {.max_steps = 4});
  EXPECT_EQ(small.prove(target).verdict, Verdict::Unknown);

  KInductionEngine big(ts, {.max_steps = 16});
  const EngineResult r = big.prove(target);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GT(r.depth, 4u);

  // A range lemma collapses the required depth to 1.
  KInductionEngine with_lemma(
      ts, {.max_steps = 4, .lemmas = {nm.mk_ule(phase, nm.mk_const(5, 4))}});
  const EngineResult rl = with_lemma.prove(target);
  EXPECT_EQ(rl.verdict, Verdict::Proven);
  EXPECT_EQ(rl.depth, 1u);
}

TEST(KInduction, JointInductionProvesMutuallyDependentSet) {
  // acc pair + sum pair: sum equality is only inductive given acc equality.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef din = ts.add_input("din", 8);
  const NodeRef acc_a = ts.add_state("acc_a", 8);
  const NodeRef acc_b = ts.add_state("acc_b", 8);
  const NodeRef sum_a = ts.add_state("sum_a", 8);
  const NodeRef sum_b = ts.add_state("sum_b", 8);
  for (const NodeRef s : {acc_a, acc_b, sum_a, sum_b}) ts.set_init(s, nm.mk_const(0, 8));
  ts.set_next(acc_a, nm.mk_add(acc_a, din));
  ts.set_next(acc_b, nm.mk_add(acc_b, din));
  ts.set_next(sum_a, nm.mk_add(sum_a, acc_a));
  ts.set_next(sum_b, nm.mk_add(sum_b, acc_b));

  const NodeRef sum_eq = nm.mk_eq(sum_a, sum_b);
  const NodeRef acc_eq = nm.mk_eq(acc_a, acc_b);

  KInductionEngine solo(ts, {.max_steps = 1});
  EXPECT_EQ(solo.prove(sum_eq).verdict, Verdict::Unknown);

  KInductionEngine joint(ts, {.max_steps = 2});
  EXPECT_EQ(joint.prove_all({sum_eq, acc_eq}).verdict, Verdict::Proven);
}

TEST(KInduction, SimplePathClosesLassoFreeProperty) {
  // Incrementally-maintained 2-bit Gray shadow with an input-gated audit: a
  // corrupted gray register persists forever and the audit can be deferred
  // arbitrarily (chk held low), so the property is not k-inductive for ANY
  // k. The state space is tiny though, so pairwise simple-path constraints
  // force the step case UNSAT once paths must exceed the garbage orbit.
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef chk = ts.add_input("chk", 1);
  const NodeRef bin = ts.add_state("bin", 2);
  const NodeRef gray = ts.add_state("gray", 2);
  const NodeRef err = ts.add_state("err", 1);
  ts.set_init(bin, nm.mk_const(0, 2));
  ts.set_init(gray, nm.mk_const(0, 2));
  ts.set_init(err, nm.mk_const(0, 1));
  const NodeRef one = nm.mk_const(1, 2);
  const NodeRef flip = nm.mk_xor(bin, nm.mk_add(bin, one));
  const NodeRef delta = nm.mk_xor(flip, nm.mk_lshr(flip, one));
  ts.set_next(bin, nm.mk_add(bin, one));
  ts.set_next(gray, nm.mk_xor(gray, delta));
  const NodeRef enc = nm.mk_xor(bin, nm.mk_lshr(bin, one));
  ts.set_next(err, nm.mk_or(err, nm.mk_and(chk, nm.mk_ne(gray, enc))));
  const NodeRef target = nm.mk_not(err);

  KInductionEngine plain(ts, {.max_steps = 12, .simple_path = false});
  EXPECT_EQ(plain.prove(target).verdict, Verdict::Unknown);

  KInductionEngine pathy(ts, {.max_steps = 12, .simple_path = true});
  EXPECT_EQ(pathy.prove(target).verdict, Verdict::Proven);
}

TEST(KInduction, ConflictBudgetYieldsUnknown) {
  auto ts = sync_counters(32);
  auto& nm = ts.nm();
  const NodeRef target = nm.mk_implies(nm.mk_redand(ts.lookup("count1")),
                                       nm.mk_redand(ts.lookup("count2")));
  KInductionEngine engine(ts, {.max_steps = 64, .conflict_budget = 1});
  const EngineResult result = engine.prove(target);
  EXPECT_EQ(result.verdict, Verdict::Unknown);
}

TEST(KInduction, ProvenPropertiesSurviveLongRandomSimulation) {
  // Cross-check engine soundness against the reference simulator.
  auto ts = sync_counters(12);
  auto& nm = ts.nm();
  const NodeRef helper = nm.mk_eq(ts.lookup("count1"), ts.lookup("count2"));
  KInductionEngine engine(ts, {.max_steps = 4});
  ASSERT_EQ(engine.prove(helper).verdict, Verdict::Proven);
  sim::RandomSimulator simulator(ts, 77);
  EXPECT_FALSE(simulator.falsify(helper, 500, 4).has_value());
}

// --- every option reaches every engine ---------------------------------------

/// BMC, k-induction and PDR read one EngineOptions directly — no adapter
/// copies fields — so each case below runs all three through make_engine.
class EngineOptionsReach : public testing::TestWithParam<EngineKind> {
 protected:
  /// A 4-bit free-running counter and `c != 5`, which it violates at depth 5.
  EngineOptionsReach() : ts_(free_counter(4)) {
    auto& nm = ts_.nm();
    prop_ = nm.mk_ne(ts_.lookup("c"), nm.mk_const(5, 4));
  }

  EngineResult prove(const EngineOptions& options) {
    return make_engine(GetParam(), ts_, options)->prove(prop_);
  }

  ir::TransitionSystem ts_;
  NodeRef prop_ = nullptr;
};

TEST_P(EngineOptionsReach, LemmasChangeTheOutcome) {
  // Assuming `c <= 3` on every frame (an assumption, not an invariant) cuts
  // every path before the violation: BMC stops finding it, k-induction and
  // PDR prove the property.
  auto& nm = ts_.nm();
  EXPECT_EQ(prove({.max_steps = 8}).verdict, Verdict::Falsified);
  const NodeRef low = nm.mk_ule(ts_.lookup("c"), nm.mk_const(3, 4));
  EXPECT_EQ(prove({.max_steps = 8, .lemmas = {low}}).verdict,
            GetParam() == EngineKind::Bmc ? Verdict::Unknown : Verdict::Proven);
}

TEST_P(EngineOptionsReach, ZeroConflictBudgetYieldsUnknown) {
  EXPECT_EQ(prove({.max_steps = 8, .conflict_budget = 0}).verdict, Verdict::Unknown);
}

TEST_P(EngineOptionsReach, PresetStopYieldsUnknown) {
  EngineOptions options{.max_steps = 8};
  options.stop = std::make_shared<std::atomic<bool>>(true);
  EXPECT_EQ(prove(options).verdict, Verdict::Unknown);
}

TEST_P(EngineOptionsReach, InprocessingFollowsTheOption) {
  // fifo_ctrl at 10 steps costs every engine enough conflicts for
  // inprocessing sessions to run when the option is on.
  for (const bool inprocess : {true, false}) {
    auto task = designs::make_task("fifo_ctrl");
    auto engine = make_engine(GetParam(), task.ts,
                              {.max_steps = 10, .sat_inprocess = inprocess});
    const EngineResult result = engine->prove_all(task.target_exprs());
    if (inprocess) {
      EXPECT_GT(result.stats.inprocessings, 0u);
    } else {
      EXPECT_EQ(result.stats.inprocessings, 0u);
    }
  }
}

TEST_P(EngineOptionsReach, DratPathWritesAProof) {
  const std::string base = testing::TempDir() + "genfv_engine_drat";
  // k-induction names its base-case solver's proof `<base>_base`.
  const std::string proof =
      base + (GetParam() == EngineKind::KInduction ? "_base" : "") + ".drat";
  std::filesystem::remove(proof);
  EngineOptions options{.max_steps = 8};
  options.drat_path = base;
  prove(options);
  EXPECT_TRUE(std::filesystem::exists(proof)) << proof;
}

INSTANTIATE_TEST_SUITE_P(SingleEngines, EngineOptionsReach,
                         testing::Values(EngineKind::Bmc, EngineKind::KInduction,
                                         EngineKind::Pdr),
                         [](const testing::TestParamInfo<EngineKind>& info) {
                           return info.param == EngineKind::KInduction
                                      ? std::string("kinduction")
                                      : to_string(info.param);
                         });

// --- the pinned k-induction trajectory ----------------------------------------

/// SAT work of k-induction on dual_accumulator at max_k 8, recorded when
/// the base case started binding frame 0 to the constant init values and the
/// bit-blaster began sharing identical word-level operators. Both rows moved
/// then, from 52,937 (inprocessing on) and 55,201 (off) conflicts to 261: the
/// two accumulator chains now share one encoding from reset, so the base
/// case's property literal folds to a constant and only the step case
/// searches. No inprocessing session and no clause-database reduction runs
/// in either row, which is why the two rows agree. Any drift in these
/// counters means a decision, propagation or deletion moved.
struct KInductionExpectation {
  bool inprocess;
  std::uint64_t solves;
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t conflicts;
  std::uint64_t learnt_clauses;
  std::uint64_t deleted_clauses;
};
constexpr KInductionExpectation kDualAccumulatorK8[] = {
    {true, 16, 9661, 93957, 261, 261, 0},
    {false, 16, 9661, 93957, 261, 261, 0},
};

TEST(KInductionTrajectory, ReproducesPinnedDualAccumulatorTrajectory) {
  const auto task = designs::make_task("dual_accumulator");
  for (const KInductionExpectation& expected : kDualAccumulatorK8) {
    KInductionEngine engine(task.ts, {.max_steps = 8, .sat_inprocess = expected.inprocess});
    const EngineResult result = engine.prove_all(task.target_exprs());
    const EngineStats& stats = result.stats;
    const std::string label = expected.inprocess ? "inprocess on" : "inprocess off";
    EXPECT_EQ(result.verdict, Verdict::Unknown) << label;
    EXPECT_EQ(stats.sat_calls, expected.solves) << label;
    EXPECT_EQ(stats.decisions, expected.decisions) << label;
    EXPECT_EQ(stats.propagations, expected.propagations) << label;
    EXPECT_EQ(stats.conflicts, expected.conflicts) << label;
    EXPECT_EQ(stats.learnt_clauses, expected.learnt_clauses) << label;
    EXPECT_EQ(stats.deleted_clauses, expected.deleted_clauses) << label;
  }
}

TEST(Result, SummaryMentionsVerdictAndDepth) {
  InductionResult r;
  r.verdict = Verdict::Proven;
  r.k = 3;
  const std::string s = r.summary();
  EXPECT_NE(s.find("proven"), std::string::npos);
  EXPECT_NE(s.find("k=3"), std::string::npos);
}

}  // namespace
}  // namespace genfv::mc
