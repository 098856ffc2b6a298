/// Model-checking engine tests: unroller mechanics, BMC counterexample
/// depth/consistency, k-induction verdicts with and without lemmas, joint
/// (mutual) induction, simple-path constraints, budgets.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "mc/bmc.hpp"
#include "sat/solver.hpp"
#include "mc/kinduction.hpp"
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
  Unroller unroller(ts, solver);
  EXPECT_EQ(unroller.frame_count(), 1u);
  unroller.extend_to(3);
  EXPECT_EQ(unroller.frame_count(), 4u);
  unroller.assert_init();
  const NodeRef c = ts.lookup("c");
  // With init asserted, the counter value at frame f is exactly f.
  ASSERT_EQ(solver.solve(), sat::LBool::True);
  for (std::size_t f = 0; f <= 3; ++f) {
    EXPECT_EQ(unroller.model_value(c, f), f);
  }
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
  BmcEngine bmc(ts, {.max_depth = 32});
  const BmcResult result = bmc.check(nm.mk_ne(c, nm.mk_const(13, 6)));
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
  BmcEngine bmc(ts, {.max_depth = 10});
  const BmcResult result =
      bmc.check(nm.mk_ule(ts.lookup("c"), nm.mk_ones(8)));
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
  BmcEngine bmc(ts, {.max_depth = 8});
  EXPECT_EQ(bmc.check(nm.mk_not(flag)).verdict, Verdict::Unknown);
}

TEST(KInduction, ProvesInductiveInvariantAtKOne) {
  auto ts = sync_counters(16);
  auto& nm = ts.nm();
  const NodeRef helper = nm.mk_eq(ts.lookup("count1"), ts.lookup("count2"));
  KInductionEngine engine(ts, {.max_k = 4});
  const InductionResult result = engine.prove(helper);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.k, 1u);
}

TEST(KInduction, PaperTargetNeedsTheLemma) {
  auto ts = sync_counters(16);
  auto& nm = ts.nm();
  const NodeRef c1 = ts.lookup("count1");
  const NodeRef c2 = ts.lookup("count2");
  const NodeRef target = nm.mk_implies(nm.mk_redand(c1), nm.mk_redand(c2));
  const NodeRef helper = nm.mk_eq(c1, c2);

  KInductionEngine without(ts, {.max_k = 6});
  const InductionResult r1 = without.prove(target);
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

  KInductionEngine with(ts, {.max_k = 6, .lemmas = {helper}});
  const InductionResult r2 = with.prove(target);
  EXPECT_EQ(r2.verdict, Verdict::Proven);
  EXPECT_EQ(r2.k, 1u);
}

TEST(KInduction, FalsifiedPropertyYieldsRealBaseCex) {
  auto ts = free_counter(5);
  auto& nm = ts.nm();
  const NodeRef c = ts.lookup("c");
  KInductionEngine engine(ts, {.max_k = 16});
  const InductionResult result = engine.prove(nm.mk_ne(c, nm.mk_const(6, 5)));
  EXPECT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.base_cex.has_value());
  EXPECT_TRUE(result.base_cex->is_consistent());
  EXPECT_EQ(result.base_cex->value(c, 0), 0u);  // starts at reset
  EXPECT_EQ(result.base_cex->value(c, result.base_cex->size() - 1), 6u);
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

  KInductionEngine small(ts, {.max_k = 4});
  EXPECT_EQ(small.prove(target).verdict, Verdict::Unknown);

  KInductionEngine big(ts, {.max_k = 16});
  const InductionResult r = big.prove(target);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  EXPECT_GT(r.k, 4u);

  // A range lemma collapses the required depth to 1.
  KInductionEngine with_lemma(
      ts, {.max_k = 4, .lemmas = {nm.mk_ule(phase, nm.mk_const(5, 4))}});
  const InductionResult rl = with_lemma.prove(target);
  EXPECT_EQ(rl.verdict, Verdict::Proven);
  EXPECT_EQ(rl.k, 1u);
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

  KInductionEngine solo(ts, {.max_k = 1});
  EXPECT_EQ(solo.prove(sum_eq).verdict, Verdict::Unknown);

  KInductionEngine joint(ts, {.max_k = 2});
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

  KInductionEngine plain(ts, {.max_k = 12, .simple_path = false});
  EXPECT_EQ(plain.prove(target).verdict, Verdict::Unknown);

  KInductionEngine pathy(ts, {.max_k = 12, .simple_path = true});
  EXPECT_EQ(pathy.prove(target).verdict, Verdict::Proven);
}

TEST(KInduction, ConflictBudgetYieldsUnknown) {
  auto ts = sync_counters(32);
  auto& nm = ts.nm();
  const NodeRef target = nm.mk_implies(nm.mk_redand(ts.lookup("count1")),
                                       nm.mk_redand(ts.lookup("count2")));
  KInductionEngine engine(ts, {.max_k = 64, .conflict_budget = 1});
  const InductionResult result = engine.prove(target);
  EXPECT_EQ(result.verdict, Verdict::Unknown);
}

TEST(KInduction, ProvenPropertiesSurviveLongRandomSimulation) {
  // Cross-check engine soundness against the reference simulator.
  auto ts = sync_counters(12);
  auto& nm = ts.nm();
  const NodeRef helper = nm.mk_eq(ts.lookup("count1"), ts.lookup("count2"));
  KInductionEngine engine(ts, {.max_k = 4});
  ASSERT_EQ(engine.prove(helper).verdict, Verdict::Proven);
  sim::RandomSimulator simulator(ts, 77);
  EXPECT_FALSE(simulator.falsify(helper, 500, 4).has_value());
}

// --- the pinned k-induction trajectory ----------------------------------------

/// SAT work of k-induction on dual_accumulator at max_k 8, recorded before
/// the clause database moved to inline literals and an indexed reduction.
/// That change only re-expresses the same search, so any drift in these
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
    {true, 16, 109456, 2350578, 52937, 52937, 42539},
    {false, 16, 110331, 4862937, 55201, 55201, 51727},
};

TEST(KInductionTrajectory, ReproducesPinnedDualAccumulatorTrajectory) {
  const auto task = designs::make_task("dual_accumulator");
  for (const KInductionExpectation& expected : kDualAccumulatorK8) {
    KInductionEngine engine(task.ts, {.max_k = 8, .sat_inprocess = expected.inprocess});
    const InductionResult result = engine.prove_all(task.target_exprs());
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
