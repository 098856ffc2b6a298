/// CDCL solver tests: unit behaviour, incremental assumptions, unsat cores,
/// budgets — plus the property-based cross-check against brute-force
/// enumeration on random 3-CNF instances, which exercises propagation,
/// conflict analysis, minimization, restarts and DB reduction together.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace genfv::sat {
namespace {

Lit pos(Var v) { return mk_lit(v); }
Lit neg(Var v) { return mk_lit(v, true); }

TEST(Types, LiteralEncoding) {
  const Lit p = mk_lit(3);
  EXPECT_EQ(var(p), 3);
  EXPECT_FALSE(sign(p));
  EXPECT_TRUE(sign(~p));
  EXPECT_EQ(var(~p), 3);
  EXPECT_EQ(~~p, p);
  EXPECT_EQ(p ^ true, ~p);
  EXPECT_EQ(p ^ false, p);
}

TEST(Solver, TrivialSatAndModel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
  ASSERT_TRUE(s.add_clause(neg(a)));
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(a), LBool::False);
  EXPECT_EQ(s.model_value(b), LBool::True);
}

TEST(Solver, EmptyClauseMakesInconsistent) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{}));
  EXPECT_TRUE(s.inconsistent());
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, UnitContradiction) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a)));
  EXPECT_FALSE(s.add_clause(neg(a)));
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, TautologyAndDuplicatesAreHarmless) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), neg(a), pos(b)}));  // tautology: dropped
  ASSERT_TRUE(s.add_clause({pos(b), pos(b), pos(b)}));  // collapses to unit
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
}

TEST(Solver, PigeonholeThreeIntoTwoIsUnsat) {
  // p(i,j): pigeon i in hole j; 3 pigeons, 2 holes.
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.add_clause(pos(p[i][0]), pos(p[i][1])));
  }
  for (int j = 0; j < 2; ++j) {
    for (int i1 = 0; i1 < 3; ++i1) {
      for (int i2 = i1 + 1; i2 < 3; ++i2) {
        ASSERT_TRUE(s.add_clause(neg(p[i1][j]), neg(p[i2][j])));
      }
    }
  }
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, AssumptionsAreTemporary) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(neg(a), pos(b)));
  EXPECT_EQ(s.solve({pos(a)}), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
  EXPECT_EQ(s.solve({pos(a), neg(b)}), LBool::False);
  // The same solver answers SAT again once the conflicting assumption goes.
  EXPECT_EQ(s.solve({neg(b)}), LBool::True);
  EXPECT_EQ(s.model_value(a), LBool::False);
}

TEST(Solver, FailedAssumptionCoreIsConflicting) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_clause(neg(a), neg(b)));  // a && b impossible
  ASSERT_EQ(s.solve({pos(a), pos(b), pos(c)}), LBool::False);
  const auto& core = s.failed_assumptions();
  ASSERT_FALSE(core.empty());
  // c is irrelevant and must not be required; a or b must appear.
  for (const Lit l : core) EXPECT_NE(var(l), c);
  // Assert the core literals permanently: the formula must become UNSAT.
  Solver s2;
  (void)s2.new_var();
  (void)s2.new_var();
  (void)s2.new_var();
  ASSERT_TRUE(s2.add_clause(neg(a), neg(b)));
  bool consistent = true;
  for (const Lit l : core) consistent = s2.add_clause(l) && consistent;
  EXPECT_TRUE(!consistent || s2.solve() == LBool::False);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  // Pigeonhole 6 into 5: hard enough to exceed a 5-conflict budget.
  Solver s;
  constexpr int kPigeons = 6;
  constexpr int kHoles = 5;
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < kHoles; ++j) clause.push_back(pos(p[i][j]));
    ASSERT_TRUE(s.add_clause(clause));
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i1 = 0; i1 < kPigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2) {
        ASSERT_TRUE(s.add_clause(neg(p[i1][j]), neg(p[i2][j])));
      }
    }
  }
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), LBool::Undef);
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, TrueLitIsAlwaysTrue) {
  Solver s;
  const Lit t = s.true_lit();
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(t), LBool::True);
  EXPECT_EQ(s.solve({~t}), LBool::False);
}

// --- property-based cross-check against brute force ---------------------------

struct RandomCnfCase {
  std::uint64_t seed;
};

class SatBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

/// Enumerate all assignments; return true iff some satisfies all clauses.
bool brute_force_sat(int num_vars, const std::vector<std::vector<int>>& clauses,
                     std::uint32_t* satisfying = nullptr) {
  for (std::uint32_t m = 0; m < (1u << num_vars); ++m) {
    bool all_ok = true;
    for (const auto& clause : clauses) {
      bool clause_ok = false;
      for (const int lit : clause) {
        const int v = std::abs(lit) - 1;
        const bool val = (m >> v) & 1u;
        if ((lit > 0) == val) {
          clause_ok = true;
          break;
        }
      }
      if (!clause_ok) {
        all_ok = false;
        break;
      }
    }
    if (all_ok) {
      if (satisfying != nullptr) *satisfying = m;
      return true;
    }
  }
  return false;
}

TEST_P(SatBruteForce, AgreesOnRandom3Cnf) {
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 40; ++instance) {
    const int num_vars = 3 + static_cast<int>(rng.below(8));       // 3..10
    const int num_clauses = num_vars + static_cast<int>(rng.below(
                                           static_cast<std::uint64_t>(3 * num_vars)));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int l = 0; l < len; ++l) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
        clause.push_back(rng.chance(0.5) ? v : -v);
      }
      clauses.push_back(std::move(clause));
    }

    Solver solver;
    for (int v = 0; v < num_vars; ++v) (void)solver.new_var();
    bool load_ok = true;
    for (const auto& clause : clauses) {
      std::vector<Lit> lits;
      for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      load_ok = solver.add_clause(std::move(lits)) && load_ok;
    }

    const bool expected = brute_force_sat(num_vars, clauses);
    if (!load_ok) {
      ASSERT_FALSE(expected) << "solver found level-0 conflict on a SAT instance";
      continue;
    }
    const LBool verdict = solver.solve();
    ASSERT_EQ(verdict == LBool::True, expected) << "instance " << instance;

    if (verdict == LBool::True) {
      // The model must satisfy every clause.
      for (const auto& clause : clauses) {
        bool ok = false;
        for (const int l : clause) {
          const LBool mv = solver.model_value(mk_lit(std::abs(l) - 1, l < 0));
          if (mv == LBool::True) {
            ok = true;
            break;
          }
        }
        ASSERT_TRUE(ok) << "model violates a clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatBruteForce,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class SatAssumptionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatAssumptionProperty, AssumptionsMatchAddedUnits) {
  // solve(assumptions) must agree with solving a copy where the assumptions
  // are permanent unit clauses.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 20; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.below(6));
    std::vector<std::vector<int>> clauses;
    const int num_clauses = 2 * num_vars;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      for (int l = 0; l < 3; ++l) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
        clause.push_back(rng.chance(0.5) ? v : -v);
      }
      clauses.push_back(std::move(clause));
    }
    std::vector<int> assumptions;
    for (int v = 1; v <= num_vars; ++v) {
      if (rng.chance(0.3)) assumptions.push_back(rng.chance(0.5) ? v : -v);
    }

    Solver incremental;
    Solver monolithic;
    for (int v = 0; v < num_vars; ++v) {
      (void)incremental.new_var();
      (void)monolithic.new_var();
    }
    bool mono_ok = true;
    for (const auto& clause : clauses) {
      std::vector<Lit> lits;
      for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      ASSERT_TRUE(incremental.add_clause(lits));
      mono_ok = monolithic.add_clause(std::move(lits)) && mono_ok;
    }
    std::vector<Lit> assumption_lits;
    for (const int l : assumptions) {
      assumption_lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      if (mono_ok) mono_ok = monolithic.add_clause(mk_lit(std::abs(l) - 1, l < 0));
    }
    const LBool inc = incremental.solve(assumption_lits);
    const LBool mono = mono_ok ? monolithic.solve() : LBool::False;
    ASSERT_EQ(inc, mono);
    // The incremental solver must remain usable without assumptions.
    ASSERT_NE(incremental.solve(), LBool::Undef);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatAssumptionProperty, ::testing::Values(7, 11, 19, 23));

// --- DIMACS ---------------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.clauses = {{1, -2}, {2, 3}, {-1}};
  const Cnf parsed = parse_dimacs(to_dimacs(cnf));
  EXPECT_EQ(parsed.num_vars, 3);
  EXPECT_EQ(parsed.clauses, cnf.clauses);
}

TEST(Dimacs, ParsesCommentsAndWhitespace) {
  const Cnf cnf = parse_dimacs("c a comment\np cnf 2 1\n 1 -2 0\n");
  EXPECT_EQ(cnf.num_vars, 2);
  ASSERT_EQ(cnf.clauses.size(), 1u);
}

TEST(Dimacs, RejectsMalformedInput) {
  // Each error names its cause. Every header field and literal must be a
  // whole, in-range integer: the last four rows used to parse, because a
  // prefix-reading number parser took "1x" as 1, "abc" as 0 variables and a
  // negative count as is, and |INT_MIN| overflowed past the variable bound.
  struct Row {
    const char* text;
    const char* cause;
  };
  const Row rows[] = {
      {"p cnf x y\n1 0\n", "'x'"},
      {"p cnf 1 1\n1\n", "unterminated"},
      {"p cnf 1 1\n5 0\n", "'5'"},  // var out of range
      {"p cnf 1 2\n1 0\n", "mismatch"},
      {"p cnf 1 1\n1x 0\n", "'1x'"},
      {"p cnf abc 1\n0\n", "'abc'"},
      {"p cnf -4 0\n", "'-4'"},
      {"p cnf 3 1\n-2147483648 0\n", "'-2147483648'"},
  };
  for (const Row& row : rows) {
    try {
      (void)parse_dimacs(row.text);
      ADD_FAILURE() << "accepted: " << row.text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(row.cause), std::string::npos)
          << row.text << " -> " << e.what();
    }
  }
}

TEST(Dimacs, LoadIntoSolver) {
  const Cnf cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n");
  Solver s;
  ASSERT_TRUE(load_cnf(cnf, s));
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(Var{1}), LBool::True);
}

TEST(SolverStats, CountersAdvance) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
  (void)s.solve();
  EXPECT_GE(s.stats().solves, 1u);
  EXPECT_GE(s.stats().propagations + s.stats().decisions, 1u);
}

// --- inprocessing soundness ---------------------------------------------------

/// Random CNF generator shared by the inprocessing fuzz tests: wide enough
/// clause/variable mix to give subsumption, strengthening and elimination
/// real work, small enough for brute force.
std::vector<std::vector<int>> random_cnf(util::Xoshiro256& rng, int num_vars) {
  const int num_clauses = num_vars + static_cast<int>(rng.below(
                                         static_cast<std::uint64_t>(4 * num_vars)));
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    const int len = 1 + static_cast<int>(rng.below(4));  // 1..4 literals
    for (int l = 0; l < len; ++l) {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
      clause.push_back(rng.chance(0.5) ? v : -v);
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

bool load_raw(Solver& s, int num_vars, const std::vector<std::vector<int>>& clauses) {
  while (s.num_vars() < num_vars) (void)s.new_var();
  bool ok = true;
  for (const auto& clause : clauses) {
    std::vector<Lit> lits;
    for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
    ok = s.add_clause(std::move(lits)) && ok;
  }
  return ok;
}

/// The model (extended through the elimination stack) must satisfy the
/// *original* clause list, not just the simplified database.
void expect_model_satisfies(const Solver& s,
                            const std::vector<std::vector<int>>& clauses) {
  for (const auto& clause : clauses) {
    bool ok = false;
    for (const int l : clause) {
      if (s.model_value(mk_lit(std::abs(l) - 1, l < 0)) == LBool::True) {
        ok = true;
        break;
      }
    }
    ASSERT_TRUE(ok) << "extended model violates an original clause";
  }
}

class InprocessFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InprocessFuzz, OnOffAndForcedSimplifyAgreeWithBruteForce) {
  // Three solvers over each instance: inprocessing off (the pinned baseline
  // path), on (cadence-scheduled — these instances are too small to hit the
  // conflict cadence, so this mostly checks the LBD-tier path), and on with
  // an explicit simplify_now() session (forces BVE/subsumption/vivification
  // through every clause). All must agree with brute force, and every SAT
  // model must extend over eliminated variables back to the original CNF.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 30; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.below(9));  // 4..12
    const auto clauses = random_cnf(rng, num_vars);
    const bool expected = brute_force_sat(num_vars, clauses);

    Solver off;
    off.set_inprocessing(false);
    Solver on;
    Solver forced;
    const bool off_ok = load_raw(off, num_vars, clauses);
    const bool on_ok = load_raw(on, num_vars, clauses);
    const bool forced_ok = load_raw(forced, num_vars, clauses);
    ASSERT_EQ(off_ok, on_ok);
    ASSERT_EQ(off_ok, forced_ok);
    if (!off_ok) {
      ASSERT_FALSE(expected);
      continue;
    }
    if (!forced.inconsistent()) forced.simplify_now();

    ASSERT_EQ(off.solve() == LBool::True, expected) << "instance " << instance;
    ASSERT_EQ(on.solve() == LBool::True, expected) << "instance " << instance;
    ASSERT_EQ(forced.inconsistent() ? LBool::False : forced.solve(),
              expected ? LBool::True : LBool::False)
        << "instance " << instance;
    if (expected) {
      expect_model_satisfies(on, clauses);
      expect_model_satisfies(forced, clauses);
    }
    EXPECT_EQ(off.stats().inprocessings, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class InprocessIncrementalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InprocessIncrementalFuzz, FrozenAssumptionsSurviveSimplifySessions) {
  // The incremental contract inprocessing must not break: interleave clause
  // batches, explicit simplify sessions and assumption solves, and compare
  // every answer against a plain solver with inprocessing off. Assumption
  // variables are frozen by solve(); a variable the simplifier eliminated
  // anyway is restored on re-import when a later batch mentions it.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 10; ++instance) {
    const int num_vars = 6 + static_cast<int>(rng.below(6));  // 6..11
    Solver simplified;
    Solver baseline;
    baseline.set_inprocessing(false);
    while (simplified.num_vars() < num_vars) (void)simplified.new_var();
    while (baseline.num_vars() < num_vars) (void)baseline.new_var();

    bool consistent = true;
    for (int round = 0; round < 4 && consistent; ++round) {
      const auto batch = random_cnf(rng, num_vars);
      for (const auto& clause : batch) {
        std::vector<Lit> lits;
        for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
        const bool a = simplified.add_clause(lits);
        const bool b = baseline.add_clause(std::move(lits));
        ASSERT_EQ(a, b) << "level-0 divergence in round " << round;
        consistent = a;
        if (!consistent) break;
      }
      if (!consistent) break;
      simplified.simplify_now();
      if (simplified.inconsistent()) {
        // The session may find the level-0 conflict before baseline's next
        // solve does; the baseline must then answer UNSAT too.
        ASSERT_EQ(baseline.solve(), LBool::False);
        consistent = false;
        break;
      }

      std::vector<Lit> assumptions;
      for (int v = 0; v < num_vars; ++v) {
        if (rng.chance(0.25)) {
          assumptions.push_back(mk_lit(static_cast<Var>(v), rng.chance(0.5)));
        }
      }
      ASSERT_EQ(simplified.solve(assumptions), baseline.solve(assumptions))
          << "round " << round;
      ASSERT_EQ(simplified.solve(), baseline.solve()) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessIncrementalFuzz,
                         ::testing::Values(17, 29, 43, 71));

TEST(Inprocess, EliminatedVariableIsRestoredOnImport) {
  // x (var 2) appears only in two-clause chains and is a prime elimination
  // target; after simplify_now() removes it, a later clause mentioning x
  // must transparently restore the elimination stack and stay sound.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(x)));
  ASSERT_TRUE(s.add_clause(neg(x), pos(b)));
  s.freeze(a);
  s.freeze(b);
  s.simplify_now();
  ASSERT_TRUE(s.is_eliminated(x)) << "setup no longer eliminates x";
  EXPECT_GE(s.stats().eliminated_vars, 1u);

  // Re-import: force x true and a false; the restored chain implies b.
  ASSERT_TRUE(s.add_clause(pos(x)));
  ASSERT_TRUE(s.add_clause(neg(a)));
  EXPECT_FALSE(s.is_eliminated(x));
  EXPECT_GE(s.stats().restored_vars, 1u);
  ASSERT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
  EXPECT_EQ(s.model_value(x), LBool::True);
}

TEST(Inprocess, FrozenVariablesAreNeverEliminated) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var x = s.new_var();
  s.freeze(x);
  ASSERT_TRUE(s.add_clause(pos(a), pos(x)));
  ASSERT_TRUE(s.add_clause(neg(x), pos(b)));
  s.simplify_now();
  EXPECT_FALSE(s.is_eliminated(x));
  // An assumption solve on the frozen variable still works directly.
  ASSERT_EQ(s.solve({neg(x), neg(a)}), LBool::False);
  ASSERT_EQ(s.solve({pos(x), neg(b)}), LBool::False);
  ASSERT_EQ(s.solve({pos(x), pos(b)}), LBool::True);
}

TEST(Inprocess, SubsumptionAndStrengtheningShrinkTheDatabase) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  for (const Var v : {a, b, c, d}) s.freeze(v);
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));                  // subsumes the next
  ASSERT_TRUE(s.add_clause({pos(a), pos(b), pos(c)}));
  ASSERT_TRUE(s.add_clause({neg(a), pos(b), pos(d)}));        // strengthened by #1
  const std::size_t before = s.num_clauses();
  s.simplify_now();
  EXPECT_GE(s.stats().subsumed_clauses, 1u);
  EXPECT_GE(s.stats().strengthened_clauses, 1u);
  EXPECT_LT(s.num_clauses(), before);
  // Semantics preserved: (a|b) & (b|d after strengthening).
  ASSERT_EQ(s.solve({neg(b), neg(d)}), LBool::False);
  ASSERT_EQ(s.solve({neg(a), neg(b)}), LBool::False);
  ASSERT_EQ(s.solve({pos(a), pos(b)}), LBool::True);
}

// --- DRAT proofs ---------------------------------------------------------------

/// Forward RUP checker mirroring scripts/check_drat.py, sharing no code with
/// the solver so the check stays independent. Two watched literals per
/// clause keep replaying the tens of thousands of lemmas of a
/// reduction-heavy proof cheap. Like that script (and drat-trim), it keeps
/// the units implied at the root for good: deleting a clause never retracts
/// a root fact it once implied, and the solver's level-0 trail relies on
/// exactly that.
class RupChecker {
 public:
  explicit RupChecker(const std::vector<std::vector<int>>& inputs) {
    for (const auto& clause : inputs) insert(clause);
  }

  /// Accept `clause` when it is RUP against the active set.
  bool check_add(const std::vector<int>& clause) {
    if (!implied(clause)) return false;
    insert(clause);
    return true;
  }

  /// Retire one active copy of `clause` (any literal order).
  bool check_delete(const std::vector<int>& clause) {
    const auto it = by_key_.find(sorted(clause));
    if (it == by_key_.end() || it->second.empty()) return false;
    alive_[it->second.back()] = false;
    it->second.pop_back();
    return true;
  }

 private:
  static std::vector<int> sorted(std::vector<int> clause) {
    std::sort(clause.begin(), clause.end());
    return clause;
  }
  static std::size_t slot(int lit) {
    return 2 * static_cast<std::size_t>(std::abs(lit)) + (lit < 0 ? 1 : 0);
  }
  int value(int lit) const {
    const int v = values_[static_cast<std::size_t>(std::abs(lit))];
    return lit > 0 ? v : -v;
  }
  void grow(int lit) {
    const auto v = static_cast<std::size_t>(std::abs(lit));
    if (v >= values_.size()) {
      values_.resize(v + 1, 0);
      watches_.resize(2 * (v + 1));
    }
  }
  /// Make `lit` true; false when it already is false.
  bool assign(int lit) {
    const int v = value(lit);
    if (v != 0) return v > 0;
    values_[static_cast<std::size_t>(std::abs(lit))] = lit > 0 ? 1 : -1;
    trail_.push_back(lit);
    return true;
  }
  /// Add to the active set and extend the root trail with what it implies.
  void insert(std::vector<int> clause) {
    for (const int lit : clause) grow(lit);
    const std::size_t id = clauses_.size();
    by_key_[sorted(clause)].push_back(id);
    alive_.push_back(true);
    // Watch non-false literals first, so root facts cannot hide a unit.
    std::stable_partition(clause.begin(), clause.end(), [this](int l) { return value(l) >= 0; });
    bool ok = true;
    if (clause.empty() || value(clause[0]) < 0) {
      ok = false;
    } else if (clause.size() == 1 || value(clause[1]) < 0) {
      ok = assign(clause[0]);
    }
    if (clause.size() >= 2) {
      watches_[slot(clause[0])].push_back(id);
      watches_[slot(clause[1])].push_back(id);
    }
    clauses_.push_back(std::move(clause));
    if (!ok || propagates_to_conflict(root_size_)) contradiction_ = true;
    root_size_ = trail_.size();
  }
  bool propagates_to_conflict(std::size_t head) {
    for (; head < trail_.size(); ++head) {
      const int falsified = -trail_[head];
      std::vector<std::size_t>& ws = watches_[slot(falsified)];
      for (std::size_t i = 0; i < ws.size();) {
        const std::size_t id = ws[i];
        std::vector<int>& c = clauses_[id];
        if (!alive_[id]) {
          ws[i] = ws.back();
          ws.pop_back();
          continue;
        }
        if (c[0] == falsified) std::swap(c[0], c[1]);
        if (value(c[0]) > 0) {  // satisfied: keep the watch
          ++i;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (value(c[k]) >= 0) {
            std::swap(c[1], c[k]);
            watches_[slot(c[1])].push_back(id);
            ws[i] = ws.back();
            ws.pop_back();
            moved = true;
            break;
          }
        }
        if (moved) continue;
        if (!assign(c[0])) return true;  // every literal false
        ++i;
      }
    }
    return false;
  }
  bool implied(const std::vector<int>& clause) {
    if (contradiction_) return true;
    for (const int lit : clause) grow(lit);
    bool conflict = false;
    for (const int lit : clause) {
      if (!assign(-lit)) conflict = true;
    }
    if (!conflict) conflict = propagates_to_conflict(root_size_);
    while (trail_.size() > root_size_) {
      values_[static_cast<std::size_t>(std::abs(trail_.back()))] = 0;
      trail_.pop_back();
    }
    return conflict;
  }

  std::vector<std::vector<int>> clauses_;
  std::vector<bool> alive_;
  std::map<std::vector<int>, std::vector<std::size_t>> by_key_;
  std::vector<std::vector<std::size_t>> watches_;  // by slot(lit)
  std::vector<int> values_;                        // by variable: 1, -1, 0
  std::vector<int> trail_;  // root facts first, then one check's assignments
  std::size_t root_size_ = 0;
  bool contradiction_ = false;  // the active set is refuted at the root
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What replaying a `.drat` stream through RupChecker found.
struct ProofReplay {
  std::size_t adds = 0;
  std::size_t deletions = 0;
  bool empty_derived = false;
  std::string bad_line;  // first non-RUP add or unmatched deletion
};

/// Check every add of `proof` for RUP and every deletion for a match,
/// starting from `inputs`; stops at the empty clause or the first bad line.
ProofReplay replay_proof(const std::vector<std::vector<int>>& inputs, const std::string& proof) {
  ProofReplay replay;
  RupChecker checker(inputs);
  std::istringstream lines(proof);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first.empty() || first == "c") continue;
    const bool deletion = first == "d";
    std::vector<int> lits;
    int lit = 0;
    if (!deletion && first != "0") lits.push_back(std::stoi(first));
    while (fields >> lit && lit != 0) lits.push_back(lit);
    if (deletion) {
      ++replay.deletions;
      if (!checker.check_delete(lits)) {
        replay.bad_line = line;
        break;
      }
      continue;
    }
    ++replay.adds;
    if (!checker.check_add(lits)) {
      replay.bad_line = line;
      break;
    }
    if (lits.empty()) {
      replay.empty_derived = true;
      break;
    }
  }
  return replay;
}

TEST(Drat, UnsatProofIsRupValidAndDerivesEmptyClause) {
  const std::string base = testing::TempDir() + "genfv_drat_ph43";
  Solver s;
  ASSERT_TRUE(s.start_proof(base));
  // Pigeonhole 4-into-3: small, genuinely UNSAT, needs real learning.
  const int pigeons = 4;
  const int holes = 3;
  std::vector<std::vector<int>> clauses;
  auto v = [&](int p, int h) { return p * holes + h + 1; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> at_least;
    for (int h = 0; h < holes; ++h) at_least.push_back(v(p, h));
    clauses.push_back(at_least);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        clauses.push_back({-v(p1, h), -v(p2, h)});
      }
    }
  }
  ASSERT_TRUE(load_raw(s, pigeons * holes, clauses));
  s.simplify_now();
  ASSERT_EQ(s.inconsistent() ? LBool::False : s.solve(), LBool::False);

  // Replay: the logged .cnf must match what we added, and every .drat add
  // must be RUP against the growing active set, ending in the empty clause.
  const Cnf logged = parse_dimacs(slurp(base + ".cnf"));
  ASSERT_EQ(logged.clauses.size(), clauses.size());
  const ProofReplay replay = replay_proof(logged.clauses, slurp(base + ".drat"));
  EXPECT_EQ(replay.bad_line, "");
  EXPECT_GT(replay.adds, 0u);
  EXPECT_TRUE(replay.empty_derived) << "UNSAT run never logged the empty clause";
}

TEST(Drat, SatRunLogsInputsButNoEmptyClause) {
  const std::string base = testing::TempDir() + "genfv_drat_sat";
  {
    // Scoped: the .cnf is finalized when the solver (and its writer) die.
    Solver s;
    ASSERT_TRUE(s.start_proof(base));
    const Var a = s.new_var();
    const Var b = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
    ASSERT_TRUE(s.add_clause(neg(a), pos(b)));
    ASSERT_EQ(s.solve(), LBool::True);
  }
  const Cnf logged = parse_dimacs(slurp(base + ".cnf"));
  EXPECT_EQ(logged.clauses.size(), 2u);
  // No proof line is the lone "0" empty-clause add.
  std::istringstream proof(slurp(base + ".drat"));
  std::string line;
  while (std::getline(proof, line)) EXPECT_NE(line, "0");
}

// --- clause-database reduction ------------------------------------------------

/// Uniform random 3-CNF: three distinct variables per clause.
std::vector<std::vector<int>> random_3cnf(util::Xoshiro256& rng, int num_vars, int num_clauses) {
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    while (clause.size() < 3) {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
      if (std::none_of(clause.begin(), clause.end(), [v](int l) { return std::abs(l) == v; })) {
        clause.push_back(rng.chance(0.5) ? -v : v);
      }
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

TEST(ClauseDbReduction, ReductionsInterleavedWithSessionsKeepProofAndVerdict) {
  // Random 3-SAT at the threshold, hard enough that the learnt database
  // crosses the 4000-clause reduction trigger again and again. The solve
  // runs in conflict-budget slices with a forced inprocessing session
  // between them, so reductions (which free clauses and leave holes in the
  // learnt list) keep alternating with sessions (which compact it, kill
  // learnts and sweep them) — with a DRAT proof logging every step.
  util::Xoshiro256 rng(8);
  const int num_vars = 200;
  const auto clauses = random_3cnf(rng, num_vars, 852);
  const std::string base = testing::TempDir() + "genfv_drat_reduce";
  LBool answer = LBool::Undef;
  SolverStats stats;
  int reducing_slices = 0;
  {
    Solver on;
    ASSERT_TRUE(on.start_proof(base));
    ASSERT_TRUE(load_raw(on, num_vars, clauses));
    on.set_conflict_budget(1000);
    while (answer == LBool::Undef) {
      const std::uint64_t reductions_before = on.stats().reductions;
      answer = on.solve();
      if (on.stats().reductions > reductions_before) ++reducing_slices;
      if (answer == LBool::Undef) on.simplify_now();
    }
    if (answer == LBool::True) expect_model_satisfies(on, clauses);
    stats = on.stats();
  }  // the writer finalizes the .cnf when the solver dies

  Solver off;
  off.set_inprocessing(false);
  ASSERT_TRUE(load_raw(off, num_vars, clauses));
  EXPECT_EQ(off.solve(), answer);
  if (answer == LBool::True) expect_model_satisfies(off, clauses);

  EXPECT_GE(reducing_slices, 2) << "reductions never straddled a session";
  EXPECT_GT(stats.deleted_clauses, 0u);
  EXPECT_GT(stats.inprocessings, 0u);

  const ProofReplay replay =
      replay_proof(parse_dimacs(slurp(base + ".cnf")).clauses, slurp(base + ".drat"));
  EXPECT_EQ(replay.bad_line, "");
  EXPECT_GT(replay.deletions, 0u);
  EXPECT_EQ(replay.empty_derived, answer == LBool::False);
}

}  // namespace
}  // namespace genfv::sat
