/// IC3/PDR engine tests: verdicts on hand-built systems and registry
/// designs, counterexample reconstruction, cube generalization, lemma
/// seeding, inductive-invariant export (with an independent SAT check and an
/// SVA printer round-trip), the FrameDb bookkeeping and the QueryContext
/// that asserts each recorded fact in its solver, the pinned registry
/// trajectory, candidate-lemma seeding (graduate or wait, never assumed),
/// and the uniform mc::Engine interface.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "designs/design.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/pdr/blocking.hpp"
#include "mc/pdr/context.hpp"
#include "mc/pdr/cube.hpp"
#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"
#include "mc/pdr/pdr.hpp"
#include "ir/printer.hpp"
#include "sat/solver.hpp"
#include "sim/interpreter.hpp"
#include "sva/compiler.hpp"
#include "sva/parser.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc::pdr {
namespace {

using ir::NodeRef;

/// Counter stepping by `stride`, width `width`, init 0.
ir::TransitionSystem stride_counter(unsigned width, std::uint64_t stride) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef c = ts.add_state("count", width);
  ts.set_init(c, nm.mk_const(0, width));
  ts.set_next(c, nm.mk_add(c, nm.mk_const(stride, width)));
  return ts;
}

/// One-hot rotator: x' = rotate-left(x), init x = 1.
ir::TransitionSystem walking_one(unsigned width) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef x = ts.add_state("x", width);
  ts.set_init(x, nm.mk_const(1, width));
  ts.set_next(x, nm.mk_concat(nm.mk_extract(x, width - 2, 0), nm.mk_bit(x, width - 1)));
  return ts;
}

/// Independent SAT check that conj(clauses ∪ lemmas) is an inductive
/// invariant implying `prop`.
testing::AssertionResult check_invariant(const ir::TransitionSystem& ts,
                                         const std::vector<NodeRef>& clauses,
                                         const std::vector<NodeRef>& lemmas,
                                         NodeRef prop) {
  auto nm = ts.nm_ptr();
  NodeRef inv = nm->mk_true();
  for (const NodeRef c : clauses) inv = nm->mk_and(inv, c);
  for (const NodeRef l : lemmas) inv = nm->mk_and(inv, l);
  {
    sat::Solver solver;
    Unroller unroller(ts, solver, FrameZero::Init);
    if (solver.solve({~unroller.lit_at(inv, 0)}) != sat::LBool::False) {
      return testing::AssertionFailure() << "an initial state escapes the invariant";
    }
  }
  sat::Solver solver;
  Unroller unroller(ts, solver);
  unroller.extend_to(1);
  unroller.assert_at(inv, 0);
  if (solver.solve({~unroller.lit_at(inv, 1)}) != sat::LBool::False) {
    return testing::AssertionFailure() << "the invariant is not inductive";
  }
  if (solver.solve({~unroller.lit_at(prop, 0)}) != sat::LBool::False) {
    return testing::AssertionFailure() << "the invariant does not imply the property";
  }
  return testing::AssertionSuccess();
}

// --- cube primitives ---------------------------------------------------------

TEST(PdrCube, SubsumptionAndCanonicalization) {
  Cube a{{0, 1, false}, {0, 0, true}};
  canonicalize(a);
  EXPECT_EQ(a[0], (StateLit{0, 0, true}));
  const Cube b{{0, 0, true}, {0, 1, false}, {1, 3, true}};
  EXPECT_TRUE(subsumes(a, b));
  EXPECT_FALSE(subsumes(b, a));
  EXPECT_TRUE(subsumes(a, a));
}

TEST(PdrCube, ClauseExprIsNegatedCube) {
  auto ts = stride_counter(4, 1);
  // Cube: count[0] == 1 ∧ count[2] == 0  →  clause: !count[0] | count[2].
  const Cube cube{{0, 0, false}, {0, 2, true}};
  const NodeRef clause = clause_expr(ts, cube);
  const NodeRef count = ts.lookup("count");
  auto& nm = ts.nm();
  const NodeRef expected =
      nm.mk_or(nm.mk_not(nm.mk_bit(count, 0)), nm.mk_bit(count, 2));
  EXPECT_EQ(clause, expected);  // hash-consing: structural equality
}

TEST(PdrFrameDb, DeltaEncodingAndSubsumption) {
  FrameDb db;
  db.push_level();
  db.push_level();
  EXPECT_EQ(db.frontier(), 2u);
  EXPECT_EQ(db.levels(), 3u);

  const Cube wide{{0, 0, false}, {0, 1, false}};
  const Cube narrow{{0, 0, false}};
  db.add_blocked(wide, 1);
  EXPECT_TRUE(db.is_blocked(wide, 1));
  EXPECT_FALSE(db.is_blocked(wide, 2));
  // A stronger clause at a higher level subsumes the bookkeeping below.
  db.add_blocked(narrow, 2);
  EXPECT_TRUE(db.cubes_at(1).empty());
  EXPECT_EQ(db.total_cubes(), 1u);
  EXPECT_TRUE(db.is_blocked(wide, 2));
}

TEST(PdrFrameDb, EraseOnGraduation) {
  FrameDb db;
  db.push_level();
  const Cube cube{{0, 1, true}};
  db.add_blocked(cube, 1);
  EXPECT_EQ(db.cubes_at(1).size(), 1u);
  EXPECT_TRUE(db.infinity().empty());

  db.graduate(cube, 1);
  // Graduation moves the cube out of the delta bookkeeping into F_∞; the
  // delta levels no longer claim it (the context asserts it ungated instead).
  EXPECT_TRUE(db.cubes_at(1).empty());
  ASSERT_EQ(db.infinity().size(), 1u);
  EXPECT_EQ(db.infinity()[0], cube);
  EXPECT_EQ(db.total_cubes(), 0u);
}

TEST(PdrFrameDb, RecordedClausesConstrainTheNextQuery) {
  // A clause blocked through the context constrains the very next query
  // inside its frame; a graduated clause holds even without frame
  // assumptions.
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_true();

  EngineOptions options;
  QueryContext ctx(ts, prop, options);
  ctx.push_level();
  EXPECT_EQ(ctx.frames().frontier(), 1u);

  // count == 3, as a full 4-bit cube.
  const Cube cube{{0, 0, false}, {0, 1, false}, {0, 2, true}, {0, 3, true}};
  auto reaches_cube = [&](bool in_f1) {
    std::vector<sat::Lit> assumptions;
    if (in_f1) assumptions = ctx.assumptions(1);
    for (const StateLit& l : cube) assumptions.push_back(ctx.cube_lit(0, l));
    return ctx.solver().solve(assumptions);
  };

  // Before blocking: count == 3 is still reachable inside F_1.
  EXPECT_EQ(reaches_cube(true), sat::LBool::True);
  ctx.add_blocked(cube, 1);
  EXPECT_EQ(ctx.frames().cubes_at(1).size(), 1u);
  EXPECT_EQ(reaches_cube(true), sat::LBool::False);
  EXPECT_EQ(reaches_cube(false), sat::LBool::True);  // gated by F_1 only

  ctx.graduate(cube, 1);
  EXPECT_EQ(ctx.frames().infinity().size(), 1u);
  EXPECT_EQ(reaches_cube(false), sat::LBool::False);
}

TEST(PdrObligations, LowestLevelFirst) {
  ObligationQueue queue;
  const std::size_t deep = queue.add({{}, 3, {}, {}, -1});
  const std::size_t shallow = queue.add({{}, 1, {}, {}, -1});
  queue.push(deep);
  queue.push(shallow);
  EXPECT_EQ(queue.pop(), shallow);
  EXPECT_EQ(queue.pop(), deep);
  EXPECT_TRUE(queue.empty());
}

// --- verdicts ----------------------------------------------------------------

TEST(PdrEngineTest, ProvesStrideCounterParity) {
  // count += 2 from 0: "count != 7" needs the discovered invariant
  // "count is even"; k-induction cannot prove this at any k.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("count"), nm.mk_const(7, 8));

  PdrEngine engine(ts, {.max_steps = 16});
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  ASSERT_FALSE(result.invariant.empty());
  EXPECT_TRUE(check_invariant(ts, result.invariant, {}, prop));

  KInductionEngine kind(ts, {.max_steps = 16});
  EXPECT_EQ(kind.prove(prop).verdict, Verdict::Unknown);
}

TEST(PdrEngineTest, GeneralizationShrinksCubes) {
  // Without unsat-core generalization the parity proof would need to block
  // each of the 128 odd 8-bit values separately; with it, a handful of
  // short clauses suffice.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("count"), nm.mk_const(7, 8));
  PdrEngine engine(ts, {.max_steps = 16});
  const EngineResult result = engine.prove(prop);
  ASSERT_EQ(result.verdict, Verdict::Proven);
  EXPECT_LE(result.invariant.size(), 8u);
}

TEST(PdrEngineTest, FalsifiedWithConsistentTrace) {
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("count"), nm.mk_const(9, 4));

  PdrEngine engine(ts, {.max_steps = 32});
  const EngineResult result = engine.prove(prop);
  ASSERT_EQ(result.verdict, Verdict::Falsified);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_TRUE(result.cex->is_consistent());
  const auto violation = result.cex->first_violation(prop);
  ASSERT_TRUE(violation.has_value());
  // The deterministic counter admits exactly one execution: 10 frames.
  EXPECT_EQ(result.cex->size(), 10u);
  EXPECT_EQ(*violation, 9u);
  EXPECT_EQ(result.depth, result.cex->size() - 1);
}

TEST(PdrEngineTest, FalsifiedInInitialState) {
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("count"), nm.mk_const(0, 4));
  PdrEngine engine(ts, {.max_steps = 64});
  const EngineResult result = engine.prove(prop);
  ASSERT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_EQ(result.depth, 0u);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_EQ(result.cex->size(), 1u);
  EXPECT_TRUE(result.cex->first_violation(prop).has_value());
}

TEST(PdrEngineTest, UnknownWhenFramesExhausted) {
  // The unreachable two-hot value 3 requires excluding the whole rotation
  // orbit, one frame per orbit position — more than 3 frames.
  auto ts = walking_one(8);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("x"), nm.mk_const(3, 8));
  PdrEngine engine(ts, {.max_steps = 3});
  EXPECT_EQ(engine.prove(prop).verdict, Verdict::Unknown);
}

TEST(PdrEngineTest, ObligationCapEndsTheBlockingPhase) {
  // The engine runs with kMaxObligations; the blocking layer takes the cap
  // as a parameter, so a small cap exercises the Budget outcome the engine
  // turns into Unknown. First count what an uncapped phase needs, then cap
  // it one short of that.
  auto ts = walking_one(8);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("x"), nm.mk_const(3, 8));
  const EngineOptions options;
  const auto run_phase = [&](std::size_t max_obligations, std::size_t* created) {
    QueryContext ctx(ts, prop, options);
    ctx.push_level();
    ctx.push_level();
    ObligationQueue queue;
    std::size_t cex_index = 0;
    const BlockOutcome outcome =
        strengthen_frontier(ctx, queue, max_obligations, 2, &cex_index);
    *created = queue.created();
    return outcome;
  };
  std::size_t needed = 0;
  ASSERT_EQ(run_phase(kMaxObligations, &needed), BlockOutcome::Blocked);
  ASSERT_GE(needed, 2u);
  std::size_t created = 0;
  EXPECT_EQ(run_phase(needed, &created), BlockOutcome::Blocked);
  EXPECT_EQ(run_phase(needed - 1, &created), BlockOutcome::Budget);
  EXPECT_EQ(created, needed);
}

TEST(PdrEngineTest, SeededLemmaUnlocksBoundedProof) {
  // With the one-hot lemma seeding every frame, the bad states are already
  // excluded and the proof closes within 3 frames; without it, PDR needs to
  // walk the whole orbit (see UnknownWhenFramesExhausted).
  auto ts = walking_one(8);
  auto& nm = ts.nm();
  const NodeRef x = ts.lookup("x");
  const NodeRef prop = nm.mk_ne(x, nm.mk_const(3, 8));
  const NodeRef onehot =
      nm.mk_and(nm.mk_eq(nm.mk_and(x, nm.mk_sub(x, nm.mk_const(1, 8))), nm.mk_const(0, 8)),
                nm.mk_ne(x, nm.mk_const(0, 8)));

  EngineOptions options;
  options.max_steps = 3;
  options.lemmas = {onehot};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_TRUE(check_invariant(ts, result.invariant, options.lemmas, prop));
}

TEST(PdrEngineTest, ProveAllConjunction) {
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef p1 = nm.mk_ne(count, nm.mk_const(7, 8));
  const NodeRef p2 = nm.mk_ne(count, nm.mk_const(5, 8));
  PdrEngine engine(ts, {.max_steps = 16});
  EXPECT_EQ(engine.prove_all({p1, p2}).verdict, Verdict::Proven);
}

TEST(PdrEngineTest, RejectsInputDependentInit) {
  ir::TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef in = ts.add_input("i", 4);
  const NodeRef s = ts.add_state("s", 4);
  ts.set_init(s, in);
  ts.set_next(s, s);
  PdrEngine engine(ts, {.max_steps = 64});
  EXPECT_THROW(engine.prove(nm.mk_ne(s, nm.mk_const(3, 4))), UsageError);
}

// --- registry designs --------------------------------------------------------

TEST(PdrEngineTest, ProvesRegistryDesignsKInductionCannot) {
  // The headline capability: at the same step bound, PDR closes proofs that
  // k-induction reports Unknown on, because it discovers the helper
  // invariants the GenAI flow would otherwise have to mine.
  for (const char* name : {"sequencer", "token_ring"}) {
    auto task = designs::make_task(name);
    const mc::EngineOptions options{.max_steps = 8};

    auto kind = mc::make_engine(mc::EngineKind::KInduction, task.ts, options);
    EXPECT_EQ(kind->prove_all(task.target_exprs()).verdict, Verdict::Unknown) << name;

    auto pdr = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
    const mc::EngineResult result = pdr->prove_all(task.target_exprs());
    EXPECT_EQ(result.verdict, Verdict::Proven) << name;
    ASSERT_FALSE(result.invariant.empty()) << name;

    auto nm = task.ts.nm_ptr();
    ir::NodeRef conj = nm->mk_true();
    for (const NodeRef t : task.target_exprs()) conj = nm->mk_and(conj, t);
    EXPECT_TRUE(check_invariant(task.ts, result.invariant, {}, conj)) << name;
  }
}

TEST(PdrEngineTest, InvariantRoundTripsThroughSvaPrinter) {
  // Exported invariant clauses print as SVA, re-parse, and re-compile to the
  // exact same hash-consed expressions — the bidirectional lemma exchange
  // the flows rely on.
  auto task = designs::make_task("sequencer");
  PdrEngine engine(task.ts, {.max_steps = 8});
  const EngineResult result = engine.prove_all(task.target_exprs());
  ASSERT_EQ(result.verdict, Verdict::Proven);
  ASSERT_FALSE(result.invariant.empty());
  for (const NodeRef clause : result.invariant) {
    const std::string sva = ir::to_string(clause);
    const auto parsed = sva::parse_property(sva);
    sva::PropertyCompiler compiler(task.ts);
    EXPECT_EQ(compiler.compile(parsed).expr, clause) << sva;
  }
}

// --- the pinned registry trajectory ------------------------------------------

/// Verdict, frontier depth, SAT calls and conflicts of every registry design
/// at max_steps = 12 on default options, recorded before the sharded engine,
/// the solver pool and the gate-limit rebuild were deleted. The deletion
/// re-expresses the same single-context algorithm, so any drift here means
/// the query sequence changed. Since the initiation solver binds frame 0 to
/// the constant init values, two conflict counts differ from that record:
/// hamming74 (582 -> 580) and secded84 (723 -> 730), whose initiation checks
/// now search a smaller CNF. PDR's main solver is a free unrolling and its
/// CNF did not change, so no verdict, depth or SAT-call count moved.
///
/// fifo_ctrl was re-recorded when the solver started collecting clauses
/// satisfied at level 0 at the top of solve() (was 14,435 SAT calls and
/// 7,453 conflicts). Collection alone keeps every search: it only removes
/// clauses that can never propagate, and it purges watch lists in order.
/// fifo_ctrl also runs inprocessing sessions, though, and a session that no
/// longer finds the retired-gate clauses to detach (a swap-based removal)
/// leaves its watch lists in a different order, so its search moves. Every
/// other row is unchanged, and is the evidence that collection does not
/// change the search.
///
/// secded84 was re-recorded (730 -> 714 conflicts) when inprocessing sessions
/// moved to solve() entry. Its main solver's second session used to fire
/// inside a query, after that query's first restart; now the query runs to
/// its answer without one. No other row moved.
struct LegacyExpectation {
  const char* design;
  Verdict verdict;
  std::size_t depth;
  std::size_t sat_calls;
  std::uint64_t conflicts;
  /// Skipped by the seeding sweep unless GENFV_SLOW_TESTS is set.
  bool slow;
};
constexpr LegacyExpectation kLegacyRegistry[] = {
    {"sync_counters", Verdict::Unknown, 12, 226, 21, false},
    {"triple_counters", Verdict::Unknown, 12, 226, 22, false},
    {"gray_counter", Verdict::Unknown, 12, 1265, 148, false},
    {"updown_pair", Verdict::Proven, 7, 231, 74, false},
    {"lfsr_pair", Verdict::Unknown, 12, 187, 12, false},
    {"lfsr16", Verdict::Unknown, 12, 319, 12, false},
    {"token_ring", Verdict::Proven, 5, 321, 13, false},
    {"sequencer", Verdict::Proven, 4, 139, 40, false},
    {"dual_accumulator", Verdict::Proven, 3, 9607, 5291, true},
    {"fifo_ctrl", Verdict::Unknown, 12, 15971, 7909, false},
    {"parity_codec", Verdict::Proven, 2, 266, 87, false},
    {"hamming74", Verdict::Proven, 2, 559, 580, false},
    {"secded84", Verdict::Proven, 2, 669, 714, false},
};

TEST(PdrTrajectory, ReproducesPinnedRegistryTrajectory) {
  for (const LegacyExpectation& expected : kLegacyRegistry) {
    auto task = designs::make_task(expected.design);
    mc::EngineOptions options;
    options.max_steps = 12;
    auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
    const mc::EngineResult result = engine->prove_all(task.target_exprs());
    EXPECT_EQ(result.verdict, expected.verdict) << expected.design;
    EXPECT_EQ(result.depth, expected.depth) << expected.design;
    EXPECT_EQ(result.stats.sat_calls, expected.sat_calls) << expected.design;
    EXPECT_EQ(result.stats.conflicts, expected.conflicts) << expected.design;
  }
}

TEST(PdrTrajectory, DeterministicRunToRun) {
  for (const char* name : {"sequencer", "token_ring"}) {
    auto task = designs::make_task(name);
    mc::EngineOptions options;
    options.max_steps = 12;
    mc::EngineResult runs[2];
    for (mc::EngineResult& r : runs) {
      auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
      r = engine->prove_all(task.target_exprs());
    }
    EXPECT_EQ(runs[0].verdict, runs[1].verdict) << name;
    EXPECT_EQ(runs[0].depth, runs[1].depth) << name;
    EXPECT_EQ(runs[0].stats.sat_calls, runs[1].stats.sat_calls) << name;
    EXPECT_EQ(runs[0].stats.conflicts, runs[1].stats.conflicts) << name;
    EXPECT_EQ(runs[0].invariant.size(), runs[1].invariant.size()) << name;
  }
}

// --- query-gate hygiene ------------------------------------------------------

TEST(PdrGateHygiene, GateLitterIsCountedInStats) {
  // sequencer's proof takes dozens of blocking queries (each retiring one
  // activation gate) and real CDCL conflicts, so both counters must show up
  // in the engine-level stats.
  auto task = designs::make_task("sequencer");
  mc::EngineOptions options;
  options.max_steps = 12;
  auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
  const mc::EngineResult result = engine->prove_all(task.target_exprs());
  ASSERT_EQ(result.verdict, Verdict::Proven);
  EXPECT_GT(result.stats.retired_gates, 0u);
  EXPECT_GT(result.stats.learnt_clauses, 0u);
  EXPECT_EQ(result.stats.learnt_clauses, result.stats.conflicts);
}

TEST(PdrGateHygiene, RetiredGateLitterIsCollected) {
  // gray_counter retires hundreds of gates without ever running an
  // inprocessing session, so only the solver's level-0 collection can remove
  // the satisfied query clauses. Left in place, they alone would outnumber
  // the retired gates in the CNF at finish.
  auto task = designs::make_task("gray_counter");
  mc::EngineOptions options;
  options.max_steps = 12;
  auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
  const mc::EngineResult result = engine->prove_all(task.target_exprs());
  EXPECT_EQ(result.stats.inprocessings, 0u);
  EXPECT_GT(result.stats.retired_gates, 100u);
  EXPECT_GT(result.stats.collections, 0u);
  EXPECT_GE(result.stats.collected_clauses, result.stats.retired_gates);
  EXPECT_LT(result.stats.cnf_clauses, result.stats.retired_gates);
}

// --- candidate-lemma frame seeding -------------------------------------------

TEST(PdrCube, CubeOfClauseRoundTripsAndRejectsNonClauses) {
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const Cube cube{{0, 0, false}, {0, 2, true}};
  const auto round = cube_of_clause(ts, clause_expr(ts, cube));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, cube);

  // Single-literal clauses in both polarities.
  EXPECT_EQ(cube_of_clause(ts, nm.mk_not(nm.mk_bit(count, 1))), (Cube{{0, 1, false}}));
  EXPECT_EQ(cube_of_clause(ts, nm.mk_bit(count, 1)), (Cube{{0, 1, true}}));

  // Non-clause shapes are rejected, not approximated.
  EXPECT_FALSE(cube_of_clause(ts, nm.mk_eq(count, nm.mk_const(3, 4))).has_value());
  EXPECT_FALSE(cube_of_clause(ts, nm.mk_and(nm.mk_bit(count, 0), nm.mk_bit(count, 1)))
                   .has_value());
  // Tautology: x | !x.
  EXPECT_FALSE(cube_of_clause(
                   ts, nm.mk_or(nm.mk_bit(count, 0), nm.mk_not(nm.mk_bit(count, 0))))
                   .has_value());
}

TEST(PdrSeeding, CorrectCandidateGraduatesAndSpeedsTheProof) {
  // "count is even" as the clause !count[0] — true and inductive, but
  // *unproven* here: it must graduate through the consecution fixpoint
  // before it may do any real work.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));

  EngineOptions options;
  options.max_steps = 16;
  options.pdr_candidate_lemmas = {nm.mk_not(nm.mk_bit(count, 0))};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.stats.candidates_seeded, 1u);
  EXPECT_EQ(result.stats.candidates_graduated, 1u);
  EXPECT_EQ(result.stats.candidates_retracted, 0u);
  // The certificate must stand on its own — no candidate is ever part of it
  // without a clean graduation proof.
  EXPECT_TRUE(check_invariant(ts, result.invariant, {}, prop));
}

TEST(PdrSeeding, InitRefutedCandidateIsRetractedAtTheGate) {
  // "count[0] is always 1" is violated by the initial state itself; the
  // initiation check drops it before any frame query runs.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));

  EngineOptions options;
  options.max_steps = 16;
  options.pdr_candidate_lemmas = {nm.mk_bit(count, 0)};  // clause count[0]
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.stats.candidates_seeded, 1u);
  EXPECT_EQ(result.stats.candidates_graduated, 0u);
  EXPECT_EQ(result.stats.candidates_retracted, 1u);
  EXPECT_TRUE(check_invariant(ts, result.invariant, {}, prop));
}

TEST(PdrSeeding, WrongCandidateNeverGraduates) {
  // "count[0] is always 0" passes initiation (init = 0) but is wrong from
  // step 1 on a stride-1 counter: the odd state 1 is reachable in one step,
  // so the candidate is never consecutive and waits, unproven, at every
  // frontier. The verdict and the reconstructed trace must come out
  // untouched.
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(9, 4));

  EngineOptions options;
  options.max_steps = 32;
  options.pdr_candidate_lemmas = {nm.mk_not(nm.mk_bit(count, 0))};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  ASSERT_EQ(result.verdict, Verdict::Falsified);
  EXPECT_EQ(result.stats.candidates_seeded, 1u);
  EXPECT_EQ(result.stats.candidates_graduated, 0u);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_TRUE(result.cex->is_consistent());
  EXPECT_EQ(result.cex->size(), 10u);
  EXPECT_TRUE(result.cex->first_violation(prop).has_value());
}

TEST(PdrSeeding, DuplicateCandidatesSeedOnce) {
  // The same clause twice, its literals in either order, is one candidate.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));
  const NodeRef not0 = nm.mk_not(nm.mk_bit(count, 0));
  const NodeRef not1 = nm.mk_not(nm.mk_bit(count, 1));

  EngineOptions options;
  options.max_steps = 16;
  options.pdr_candidate_lemmas = {nm.mk_or(not0, not1), nm.mk_or(not1, not0)};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.stats.candidates_seeded, 1u);
  EXPECT_EQ(result.stats.candidates_graduated, 1u);
}

TEST(PdrSeeding, WrongCandidateNeverCorruptsTheInvariant) {
  // "count[1] is always 0" passes initiation but is false (2 is reachable).
  // Whatever SAT work it costs, the exported certificate must still be a
  // standalone inductive invariant — cross-checked independently.
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));

  EngineOptions options;
  options.max_steps = 16;
  options.pdr_candidate_lemmas = {nm.mk_not(nm.mk_bit(count, 1))};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  ASSERT_FALSE(result.invariant.empty());
  EXPECT_TRUE(check_invariant(ts, result.invariant, {}, prop));
  // The wrong clause cannot be among the exported facts.
  const NodeRef wrong = nm.mk_not(nm.mk_bit(count, 1));
  for (const NodeRef clause : result.invariant) EXPECT_NE(clause, wrong);
}

TEST(PdrSeeding, NonClauseCandidatesAreSkipped) {
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));

  EngineOptions options;
  options.max_steps = 16;
  // An equality is no clause over state bits; it must be skipped, not
  // mangled into one.
  options.pdr_candidate_lemmas = {nm.mk_eq(count, nm.mk_const(0, 8))};
  PdrEngine engine(ts, options);
  const EngineResult result = engine.prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.stats.candidates_seeded, 0u);
}

TEST(PdrSeeding, EngineInterfaceThreadsCandidateOptions) {
  auto ts = stride_counter(8, 2);
  auto& nm = ts.nm();
  const NodeRef count = ts.lookup("count");
  const NodeRef prop = nm.mk_ne(count, nm.mk_const(7, 8));
  mc::EngineOptions options;
  options.max_steps = 16;
  options.pdr_candidate_lemmas = {nm.mk_not(nm.mk_bit(count, 0))};
  auto engine = mc::make_engine(mc::EngineKind::Pdr, ts, options);
  const mc::EngineResult result = engine->prove(prop);
  EXPECT_EQ(result.verdict, Verdict::Proven);
  EXPECT_EQ(result.stats.candidates_seeded, 1u);
  EXPECT_EQ(result.stats.candidates_graduated, 1u);
}

TEST(PdrSeeding, SeedingAgreesOnRegistry) {
  // The full registry with candidate seeding on and a deliberately mixed
  // candidate diet (one clause per polarity of the first state bit: at most
  // one can be true; the initiation check and the graduation fixpoint must
  // sort them out on every design).
  const bool slow_ok = std::getenv("GENFV_SLOW_TESTS") != nullptr;
  for (const LegacyExpectation& expected : kLegacyRegistry) {
    if (expected.slow && !slow_ok) continue;
    auto task = designs::make_task(expected.design);
    auto nm = task.ts.nm_ptr();
    const NodeRef first = task.ts.states().front().var;
    mc::EngineOptions options;
    options.max_steps = 12;
    options.pdr_candidate_lemmas = {nm->mk_bit(first, 0),
                                    nm->mk_not(nm->mk_bit(first, 0))};
    auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
    const mc::EngineResult result = engine->prove_all(task.target_exprs());
    EXPECT_EQ(result.verdict, expected.verdict) << expected.design;
    if (result.verdict == Verdict::Proven) {
      ASSERT_FALSE(result.invariant.empty()) << expected.design;
      ir::NodeRef conj = nm->mk_true();
      for (const NodeRef t : task.target_exprs()) conj = nm->mk_and(conj, t);
      EXPECT_TRUE(check_invariant(task.ts, result.invariant, {}, conj))
          << expected.design;
    }
  }
}

// --- the uniform engine interface -------------------------------------------

TEST(EngineInterface, KindParsingAndNames) {
  EXPECT_EQ(engine_kind_from_string("bmc"), EngineKind::Bmc);
  EXPECT_EQ(engine_kind_from_string("kind"), EngineKind::KInduction);
  EXPECT_EQ(engine_kind_from_string("k-induction"), EngineKind::KInduction);
  EXPECT_EQ(engine_kind_from_string("pdr"), EngineKind::Pdr);
  EXPECT_EQ(engine_kind_from_string("ic3"), EngineKind::Pdr);
  EXPECT_FALSE(engine_kind_from_string("bdd").has_value());

  auto ts = stride_counter(4, 1);
  for (const EngineKind kind :
       {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr}) {
    auto engine = mc::make_engine(kind, ts);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_EQ(engine->name(), mc::to_string(kind));
  }
}

TEST(EngineInterface, AllEnginesAgreeOnFalsified) {
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ne(ts.lookup("count"), nm.mk_const(5, 4));
  for (const EngineKind kind :
       {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr}) {
    auto engine = mc::make_engine(kind, ts, {.max_steps = 16});
    const mc::EngineResult result = engine->prove(prop);
    EXPECT_EQ(result.verdict, Verdict::Falsified) << engine->name();
    ASSERT_TRUE(result.cex.has_value()) << engine->name();
    EXPECT_TRUE(result.cex->is_consistent()) << engine->name();
    EXPECT_TRUE(result.cex->first_violation(prop).has_value()) << engine->name();
    // Every engine reports effort through the same absorbed solver stats.
    EXPECT_GT(result.stats.sat_calls, 0u) << engine->name();
  }
}

TEST(EngineInterface, BmcNeverProves) {
  auto ts = stride_counter(4, 1);
  auto& nm = ts.nm();
  const NodeRef prop = nm.mk_ule(nm.mk_const(0, 4), ts.lookup("count"));  // trivially true
  auto engine = mc::make_engine(EngineKind::Bmc, ts, {.max_steps = 4});
  EXPECT_EQ(engine->prove(prop).verdict, Verdict::Unknown);
}

}  // namespace
}  // namespace genfv::mc::pdr
