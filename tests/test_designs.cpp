/// Design-zoo tests, parameterized over every registered design: the RTL
/// elaborates, targets compile, target properties are genuine invariants
/// (long constrained-random simulation finds no violation), and the
/// difficulty metadata is accurate — designs marked as needing lemmas really
/// do fail plain k-induction, with an induction-step CEX to show for it.

#include <gtest/gtest.h>

#include "util/status.hpp"

#include "designs/design.hpp"
#include "mc/kinduction.hpp"
#include "sim/random_sim.hpp"

namespace genfv::designs {
namespace {

class DesignZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(DesignZoo, ElaboratesWithTargets) {
  const DesignInfo& info = design_by_name(GetParam());
  EXPECT_FALSE(info.spec.empty());
  EXPECT_FALSE(info.description.empty());
  auto task = make_task(info);
  EXPECT_EQ(task.name, info.name);
  EXPECT_EQ(task.target_indices.size(), info.targets.size());
  EXPECT_FALSE(task.ts.states().empty());
  EXPECT_NO_THROW(task.ts.validate());
}

TEST_P(DesignZoo, TargetsSurviveLongRandomSimulation) {
  auto task = make_task(GetParam());
  sim::RandomSimulator simulator(task.ts, 0xC0FFEE);
  for (const ir::NodeRef target : task.target_exprs()) {
    const auto witness = simulator.falsify(target, 400, 5);
    EXPECT_FALSE(witness.has_value())
        << GetParam() << ": target violated at frame " << witness->size() - 1;
  }
}

TEST_P(DesignZoo, DifficultyMetadataIsAccurate) {
  const DesignInfo& info = design_by_name(GetParam());
  auto task = make_task(info);
  mc::KInductionEngine engine(task.ts, {.max_steps = 4});
  const mc::EngineResult result = engine.prove_all(task.target_exprs());
  if (info.inductive_without_lemmas) {
    EXPECT_EQ(result.verdict, mc::Verdict::Proven) << info.name;
  } else {
    EXPECT_EQ(result.verdict, mc::Verdict::Unknown) << info.name;
    // The induction-step failure artefact (paper Fig. 2/3) must exist, keep
    // the property on all frames but the last, and break it at the last.
    ASSERT_TRUE(result.step_cex.has_value()) << info.name;
    const auto& cex = *result.step_cex;
    EXPECT_TRUE(cex.is_consistent());
    ir::NodeRef conjunction = task.ts.nm().mk_true();
    for (const ir::NodeRef t : task.target_exprs()) {
      conjunction = task.ts.nm().mk_and(conjunction, t);
    }
    EXPECT_EQ(cex.value(conjunction, cex.size() - 1), 0u);
    for (std::size_t f = 0; f + 1 < cex.size(); ++f) {
      EXPECT_EQ(cex.value(conjunction, f), 1u);
    }
  }
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& d : all_designs()) names.push_back(d.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Zoo, DesignZoo, ::testing::ValuesIn(all_names()),
                         [](const auto& info) { return info.param; });

TEST(DesignRegistry, StableContents) {
  const auto& designs = all_designs();
  EXPECT_GE(designs.size(), 11u);
  // The paper's two families must be present.
  EXPECT_EQ(design_by_name("sync_counters").category, "counters");
  EXPECT_EQ(design_by_name("hamming74").category, "ecc");
  EXPECT_EQ(design_by_name("secded84").category, "ecc");
  EXPECT_THROW(design_by_name("not_a_design"), UsageError);
  // Listing 1 is reproduced verbatim enough to contain the ++ idiom.
  EXPECT_NE(design_by_name("sync_counters").rtl.find("count1++"), std::string::npos);
}

TEST(DesignRegistry, CategoriesCoverTheEvaluationFamilies) {
  std::set<std::string> categories;
  for (const auto& d : all_designs()) categories.insert(d.category);
  EXPECT_TRUE(categories.contains("counters"));
  EXPECT_TRUE(categories.contains("ecc"));
  EXPECT_TRUE(categories.contains("fsm"));
  EXPECT_TRUE(categories.contains("datapath"));
}

TEST(Hamming74, DecoderActuallyCorrectsEverySingleBitError) {
  // Directed check of the ECC datapath through the simulator: for every
  // 4-bit word and every injected error position, decoded == original.
  auto task = make_task("hamming74");
  auto& ts = task.ts;
  const ir::NodeRef decoded = ts.lookup("decoded");
  ASSERT_NE(decoded, nullptr);
  const ir::NodeRef cw = ts.lookup("cw");
  const ir::NodeRef shadow = ts.lookup("shadow");
  const ir::NodeRef inject = ts.lookup("inject");
  const ir::NodeRef err_pos = ts.lookup("err_pos");
  const ir::NodeRef en = ts.lookup("en");
  const ir::NodeRef din = ts.lookup("din");
  const ir::NodeRef rst = ts.lookup("rst");

  for (std::uint64_t word = 0; word < 16; ++word) {
    // Encode by stepping the design once with en=1.
    sim::Assignment env{{cw, 0},     {shadow, 0}, {inject, 0}, {err_pos, 0},
                        {en, 1},     {din, word}, {rst, 0}};
    const auto next = sim::step(ts, env);
    for (std::uint64_t pos = 0; pos < 8; ++pos) {  // 7 = shift-out, no error
      sim::Assignment decode_env{{cw, next.at(cw)}, {shadow, next.at(shadow)},
                                 {inject, 1},       {err_pos, pos},
                                 {en, 0},           {din, 0},
                                 {rst, 0}};
      EXPECT_EQ(sim::evaluate(decoded, decode_env), word)
          << "word " << word << " err_pos " << pos;
    }
  }
}

TEST(Secded84, NeverFlagsDoubleErrorUnderSingleInjection) {
  auto task = make_task("secded84");
  auto& ts = task.ts;
  const ir::NodeRef ded = ts.lookup("ded");
  ASSERT_NE(ded, nullptr);
  sim::RandomSimulator simulator(ts, 99);
  const sim::Trace trace = simulator.run(300);
  for (std::size_t f = 0; f < trace.size(); ++f) {
    ASSERT_EQ(trace.value(ded, f), 0u) << "frame " << f;
  }
}

TEST(FifoCtrl, OccupancyTracksPointersInSimulation) {
  auto task = make_task("fifo_ctrl");
  auto& ts = task.ts;
  const ir::NodeRef wptr = ts.lookup("wptr");
  const ir::NodeRef rptr = ts.lookup("rptr");
  const ir::NodeRef count = ts.lookup("count");
  sim::RandomSimulator simulator(ts, 123);
  const sim::Trace trace = simulator.run(300);
  for (std::size_t f = 0; f < trace.size(); ++f) {
    const std::uint64_t diff = (trace.value(wptr, f) - trace.value(rptr, f)) & 0xF;
    ASSERT_EQ(diff, trace.value(count, f)) << "frame " << f;
    ASSERT_LE(trace.value(count, f), 8u);
  }
}

}  // namespace
}  // namespace genfv::designs
