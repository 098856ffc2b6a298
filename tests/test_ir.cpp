/// IR tests: hash-consing, constant folding and algebraic simplification,
/// width/sort checking, transition-system construction rules, substitution.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "ir/printer.hpp"
#include "ir/struct_hash.hpp"
#include "ir/substitute.hpp"
#include "ir/transition_system.hpp"

namespace genfv::ir {
namespace {

TEST(NodeManager, HashConsingMakesStructuralEqualityPointerEquality) {
  NodeManager nm;
  const NodeRef a = nm.mk_input("a", 8);
  const NodeRef b = nm.mk_input("b", 8);
  EXPECT_EQ(nm.mk_add(a, b), nm.mk_add(a, b));
  EXPECT_EQ(nm.mk_add(a, b), nm.mk_add(b, a));  // commutative normalization
  EXPECT_NE(nm.mk_add(a, b), nm.mk_sub(a, b));
  EXPECT_EQ(nm.mk_const(5, 8), nm.mk_const(5, 8));
  EXPECT_NE(nm.mk_const(5, 8), nm.mk_const(5, 9));
}

TEST(NodeManager, InputsAreNominal) {
  NodeManager nm;
  EXPECT_NE(nm.mk_input("x", 4), nm.mk_input("x", 4));
  EXPECT_NE(nm.mk_state("s", 4), nm.mk_state("s", 4));
}

TEST(NodeManager, ConstantFolding) {
  NodeManager nm;
  const NodeRef five = nm.mk_const(5, 8);
  const NodeRef three = nm.mk_const(3, 8);
  EXPECT_EQ(nm.mk_add(five, three), nm.mk_const(8, 8));
  EXPECT_EQ(nm.mk_mul(five, three), nm.mk_const(15, 8));
  EXPECT_EQ(nm.mk_sub(three, five), nm.mk_const(0xFE, 8));  // wraps
  EXPECT_EQ(nm.mk_eq(five, three), nm.mk_false());
  EXPECT_EQ(nm.mk_ult(three, five), nm.mk_true());
  EXPECT_EQ(nm.mk_concat(nm.mk_const(0xA, 4), nm.mk_const(0xB, 4)), nm.mk_const(0xAB, 8));
  EXPECT_EQ(nm.mk_extract(nm.mk_const(0xAB, 8), 7, 4), nm.mk_const(0xA, 4));
  EXPECT_EQ(nm.mk_redxor(nm.mk_const(0b0111, 4)), nm.mk_true());
  EXPECT_EQ(nm.mk_udiv(five, nm.mk_const(0, 8)), nm.mk_const(0xFF, 8));  // SMT-LIB
  EXPECT_EQ(nm.mk_urem(five, nm.mk_const(0, 8)), five);
}

TEST(NodeManager, AlgebraicSimplification) {
  NodeManager nm;
  const NodeRef x = nm.mk_input("x", 8);
  const NodeRef zero = nm.mk_const(0, 8);
  const NodeRef ones = nm.mk_ones(8);
  EXPECT_EQ(nm.mk_and(x, zero), zero);
  EXPECT_EQ(nm.mk_and(x, ones), x);
  EXPECT_EQ(nm.mk_or(x, zero), x);
  EXPECT_EQ(nm.mk_or(x, ones), ones);
  EXPECT_EQ(nm.mk_xor(x, x), zero);
  EXPECT_EQ(nm.mk_xor(x, zero), x);
  EXPECT_EQ(nm.mk_xor(x, ones), nm.mk_not(x));
  EXPECT_EQ(nm.mk_add(x, zero), x);
  EXPECT_EQ(nm.mk_sub(x, x), zero);
  EXPECT_EQ(nm.mk_not(nm.mk_not(x)), x);
  EXPECT_EQ(nm.mk_eq(x, x), nm.mk_true());
  EXPECT_EQ(nm.mk_ult(x, x), nm.mk_false());
  EXPECT_EQ(nm.mk_ule(zero, x), nm.mk_true());
  EXPECT_EQ(nm.mk_shl(x, zero), x);
}

TEST(NodeManager, BooleanIteAndEqReductions) {
  NodeManager nm;
  const NodeRef c = nm.mk_input("c", 1);
  const NodeRef x = nm.mk_input("x", 8);
  const NodeRef y = nm.mk_input("y", 8);
  EXPECT_EQ(nm.mk_ite(nm.mk_true(), x, y), x);
  EXPECT_EQ(nm.mk_ite(nm.mk_false(), x, y), y);
  EXPECT_EQ(nm.mk_ite(c, x, x), x);
  EXPECT_EQ(nm.mk_ite(c, nm.mk_true(), nm.mk_false()), c);
  EXPECT_EQ(nm.mk_eq(c, nm.mk_true()), c);
  EXPECT_EQ(nm.mk_eq(c, nm.mk_false()), nm.mk_not(c));
  EXPECT_EQ(nm.mk_implies(nm.mk_false(), c), nm.mk_true());
  EXPECT_EQ(nm.mk_implies(c, c), nm.mk_true());
}

TEST(NodeManager, NestedExtractFolds) {
  NodeManager nm;
  const NodeRef x = nm.mk_input("x", 16);
  const NodeRef inner = nm.mk_extract(x, 11, 4);  // 8 bits
  const NodeRef outer = nm.mk_extract(inner, 5, 2);
  EXPECT_EQ(outer, nm.mk_extract(x, 9, 6));
}

TEST(NodeManager, WidthChecksThrow) {
  NodeManager nm;
  const NodeRef a = nm.mk_input("a", 8);
  const NodeRef b = nm.mk_input("b", 4);
  EXPECT_THROW(nm.mk_add(a, b), SortError);
  EXPECT_THROW(nm.mk_eq(a, b), SortError);
  EXPECT_THROW(nm.mk_extract(a, 8, 0), SortError);
  EXPECT_THROW(nm.mk_extract(a, 2, 3), SortError);
  EXPECT_THROW(nm.mk_zext(a, 4), SortError);
  EXPECT_THROW(nm.mk_ite(a, a, a), SortError);  // condition must be width 1
  EXPECT_THROW(nm.mk_const(0, 0), SortError);
  EXPECT_THROW(nm.mk_const(0, 65), SortError);
  const NodeRef wide = nm.mk_input("w", 40);
  EXPECT_THROW(nm.mk_concat(wide, wide), SortError);  // exceeds 64
}

TEST(NodeManager, ResizeSemantics) {
  NodeManager nm;
  const NodeRef x = nm.mk_input("x", 8);
  EXPECT_EQ(nm.mk_resize(x, 8), x);
  EXPECT_EQ(nm.mk_resize(x, 12)->width(), 12u);
  EXPECT_EQ(nm.mk_resize(x, 3), nm.mk_extract(x, 2, 0));
}

TEST(TransitionSystem, BuildAndLookup) {
  TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef in = ts.add_input("in", 4);
  const NodeRef st = ts.add_state("st", 4);
  ts.set_init(st, nm.mk_const(0, 4));
  ts.set_next(st, nm.mk_add(st, in));
  ts.add_signal("sum", nm.mk_add(st, in));
  EXPECT_EQ(ts.lookup("in"), in);
  EXPECT_EQ(ts.lookup("st"), st);
  EXPECT_NE(ts.lookup("sum"), nullptr);
  EXPECT_EQ(ts.lookup("nope"), nullptr);
  EXPECT_NO_THROW(ts.validate());
}

TEST(TransitionSystem, RejectsDuplicatesAndForeignStates) {
  TransitionSystem ts;
  auto& nm = ts.nm();
  (void)ts.add_input("x", 4);
  EXPECT_THROW(ts.add_state("x", 4), UsageError);
  const NodeRef foreign = nm.mk_state("foreign", 4);
  EXPECT_THROW(ts.set_next(foreign, nm.mk_const(0, 4)), UsageError);
  const NodeRef st = ts.add_state("s", 4);
  EXPECT_THROW(ts.set_init(st, nm.mk_const(0, 8)), SortError);  // width mismatch
}

TEST(TransitionSystem, ValidateRequiresNextFunctions) {
  TransitionSystem ts;
  (void)ts.add_state("s", 4);
  EXPECT_THROW(ts.validate(), UsageError);
}

TEST(TransitionSystem, PropertiesMustBeBool) {
  TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef st = ts.add_state("s", 4);
  ts.set_next(st, st);
  EXPECT_THROW(ts.add_property({"bad", st, PropertyRole::Target, ""}), SortError);
  const std::size_t idx =
      ts.add_property({"ok", nm.mk_eq(st, nm.mk_const(0, 4)), PropertyRole::Target, ""});
  EXPECT_EQ(ts.property(idx).name, "ok");
}

TEST(Substitute, RenamesLeavesAndRefolds) {
  NodeManager nm;
  const NodeRef a = nm.mk_state("a", 8);
  const NodeRef b = nm.mk_state("b", 8);
  const NodeRef expr = nm.mk_add(a, nm.mk_const(1, 8));
  const NodeRef renamed = substitute(expr, {{a, b}}, nm);
  EXPECT_EQ(renamed, nm.mk_add(b, nm.mk_const(1, 8)));
  // Substituting a constant triggers folding.
  const NodeRef folded = substitute(expr, {{a, nm.mk_const(4, 8)}}, nm);
  EXPECT_EQ(folded, nm.mk_const(5, 8));
  // No-op substitution returns the identical node.
  EXPECT_EQ(substitute(expr, {}, nm), expr);
}

TEST(Substitute, CollectLeavesAndDagSize) {
  NodeManager nm;
  const NodeRef a = nm.mk_state("a", 8);
  const NodeRef b = nm.mk_input("b", 8);
  const NodeRef shared = nm.mk_add(a, b);
  const NodeRef expr = nm.mk_xor(shared, shared);  // folds to 0 actually
  const NodeRef expr2 = nm.mk_and(shared, shared); // folds to shared
  EXPECT_EQ(expr, nm.mk_const(0, 8));
  EXPECT_EQ(expr2, shared);
  const auto leaves = collect_leaves(nm.mk_or(shared, nm.mk_const(1, 8)));
  EXPECT_EQ(leaves.size(), 2u);
  EXPECT_GE(dag_size(shared), 3u);
}

TEST(Printer, RendersReadableInfix) {
  NodeManager nm;
  const NodeRef a = nm.mk_state("count1", 32);
  const NodeRef b = nm.mk_state("count2", 32);
  EXPECT_EQ(to_string(nm.mk_eq(a, b)), "(count1 == count2)");
  EXPECT_EQ(to_string(nm.mk_redand(a)), "&count1");
  EXPECT_EQ(to_string(nm.mk_extract(a, 3, 0)), "count1[3:0]");
  EXPECT_EQ(to_string(nm.mk_bit(a, 31)), "count1[31]");
  const std::string ite = to_string(nm.mk_ite(nm.mk_input("c", 1), a, b));
  EXPECT_NE(ite.find('?'), std::string::npos);
}

// --- structural hashing (the proof-cache key) --------------------------------

/// Two synchronized counters with an equality property; `salt` perturbs the
/// increment constant, `names` swaps in different identifiers.
TransitionSystem counters_system(std::uint64_t increment, bool renamed) {
  TransitionSystem ts;
  auto& nm = ts.nm();
  const NodeRef a = ts.add_state(renamed ? "left" : "count1", 8);
  const NodeRef b = ts.add_state(renamed ? "right" : "count2", 8);
  const NodeRef tick = ts.add_input(renamed ? "en" : "tick", 1);
  const NodeRef step = nm.mk_const(increment, 8);
  ts.set_init(a, nm.mk_const(0, 8));
  ts.set_init(b, nm.mk_const(0, 8));
  ts.set_next(a, nm.mk_ite(tick, nm.mk_add(a, step), a));
  ts.set_next(b, nm.mk_ite(tick, nm.mk_add(b, step), b));
  ts.add_constraint(nm.mk_true());
  ts.add_property({renamed ? "match" : "equal", nm.mk_eq(a, b),
                   PropertyRole::Target, ""});
  return ts;
}

TEST(StructHash, AlphaEquivalentSystemsCollide) {
  TransitionSystem a = counters_system(1, false);
  TransitionSystem b = counters_system(1, true);
  EXPECT_EQ(struct_hash(a), struct_hash(b));
  StructHasher ha(a);
  StructHasher hb(b);
  EXPECT_EQ(ha.property_hash(a.property(0).expr), hb.property_hash(b.property(0).expr));
  EXPECT_EQ(ha.state_signatures(), hb.state_signatures());
}

TEST(StructHash, SemanticEditsChangeTheHash) {
  TransitionSystem base = counters_system(1, false);
  const std::uint64_t base_hash = struct_hash(base);

  // Different constant in the next-state function.
  EXPECT_NE(struct_hash(counters_system(2, false)), base_hash);

  // Different operator.
  TransitionSystem xored = counters_system(1, false);
  const StateVar& s0 = xored.states()[0];
  xored.set_next(s0.var, xored.nm().mk_xor(s0.var, xored.nm().mk_const(1, 8)));
  EXPECT_NE(struct_hash(xored), base_hash);

  // Different init.
  TransitionSystem shifted = counters_system(1, false);
  shifted.set_init(shifted.states()[0].var, shifted.nm().mk_const(1, 8));
  EXPECT_NE(struct_hash(shifted), base_hash);

  // An extra state.
  TransitionSystem wider = counters_system(1, false);
  const NodeRef extra = wider.add_state("extra", 1);
  wider.set_next(extra, extra);
  EXPECT_NE(struct_hash(wider), base_hash);
}

TEST(StructHash, CommutativeOperandOrderDoesNotLeakCreationOrder) {
  // NodeManager sorts commutative operands by node id, which depends on
  // creation order. Create the shared constant before the input in one
  // manager and after it in the other, so the normalized child order of the
  // product differs — the structural hash must not see the difference.
  TransitionSystem a;
  const NodeRef xa = a.add_input("x", 8);
  const NodeRef ka = a.nm().mk_const(3, 8);
  const NodeRef pa = a.nm().mk_eq(a.nm().mk_mul(xa, ka), a.nm().mk_const(0, 8));

  TransitionSystem b;
  const NodeRef kb = b.nm().mk_const(3, 8);
  const NodeRef xb = b.add_input("x", 8);
  const NodeRef pb = b.nm().mk_eq(b.nm().mk_mul(xb, kb), b.nm().mk_const(0, 8));

  StructHasher ha(a);
  StructHasher hb(b);
  EXPECT_EQ(ha.property_hash(pa), hb.property_hash(pb));
}

TEST(StructHash, OrphanLeavesHashByNameNotIdentity) {
  // A leaf that is not declared in the system (e.g. an auxiliary variable a
  // lemma pass left behind) falls back to its name, so two managers agree.
  TransitionSystem a;
  TransitionSystem b;
  const NodeRef oa = a.nm().mk_input("aux$past", 4);
  const NodeRef ob = b.nm().mk_input("aux$past", 4);
  StructHasher ha(a);
  StructHasher hb(b);
  EXPECT_EQ(ha.node_hash(oa), hb.node_hash(ob));
  EXPECT_NE(ha.node_hash(oa), ha.node_hash(a.nm().mk_input("other", 4)));
}

TEST(StructHash, DiffCountsMatchedStatesByDeclarationIndex) {
  TransitionSystem base = counters_system(1, false);
  TransitionSystem edited = counters_system(1, false);
  const StateVar& s1 = edited.states()[1];
  edited.set_next(s1.var, edited.nm().mk_sub(s1.var, edited.nm().mk_const(1, 8)));

  const StructDiff diff = struct_diff(base, edited);
  EXPECT_EQ(diff.states_a, 2u);
  EXPECT_EQ(diff.states_b, 2u);
  EXPECT_EQ(diff.compatible_states, 2u);
  EXPECT_EQ(diff.matched_states, 1u);
  EXPECT_DOUBLE_EQ(diff.similarity(), 0.5);

  // The signature-vector overload (the proof-cache path) agrees.
  StructHasher hasher(base);
  const StructDiff from_sigs = struct_diff(hasher.state_signatures(), edited);
  EXPECT_EQ(from_sigs.matched_states, 1u);
  EXPECT_DOUBLE_EQ(from_sigs.similarity(), 0.5);

  // Identical systems are fully matched.
  EXPECT_DOUBLE_EQ(struct_diff(base, counters_system(1, true)).similarity(), 1.0);
}

TEST(Printer, DescribeListsSystemParts) {
  TransitionSystem ts;
  ts.set_name("demo");
  auto& nm = ts.nm();
  const NodeRef st = ts.add_state("reg", 4);
  ts.set_init(st, nm.mk_const(0, 4));
  ts.set_next(st, nm.mk_add(st, nm.mk_const(1, 4)));
  const std::string text = describe(ts);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("reg"), std::string::npos);
  EXPECT_NE(text.find("init"), std::string::npos);
}

}  // namespace
}  // namespace genfv::ir
