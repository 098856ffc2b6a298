/// Frontend tests: the AIGER + BTOR2 readers against the committed golden
/// corpus (tests/corpus/), the malformed-input table (every row must raise a
/// *located* ParseError, never crash), the AIGER writer round-trip over the
/// whole design zoo, a lemma-file name round-trip for frontend-sourced
/// systems, and a seeded differential fuzz harness: random AIGER net-lists
/// are cross-validated against an independent reference simulator and the
/// BMC / PDR engines must agree on every generated design.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "designs/design.hpp"
#include "flow/lemma_io.hpp"
#include "flow/lemma_manager.hpp"
#include "flow/session.hpp"
#include "frontend/aiger.hpp"
#include "frontend/btor2.hpp"
#include "frontend/symbols.hpp"
#include "ir/printer.hpp"
#include "mc/engine.hpp"
#include "sim/interpreter.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace genfv::frontend {
namespace {

std::string corpus_path(const std::string& file) {
  return std::string(GENFV_TEST_CORPUS_DIR) + "/" + file;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

mc::Verdict run_engine(mc::EngineKind kind, flow::VerificationTask& task,
                       std::size_t max_steps) {
  mc::EngineOptions options;
  options.max_steps = max_steps;
  auto engine = mc::make_engine(kind, task.ts, options);
  return engine->prove_all(task.target_exprs()).verdict;
}

// --- symbol hygiene ----------------------------------------------------------

TEST(FrontendSymbols, SanitizeProducesLegalIdentifiers) {
  EXPECT_EQ(SymbolTable::sanitize("data[3].q"), "data_3__q");
  EXPECT_EQ(SymbolTable::sanitize("ok_name"), "ok_name");
  EXPECT_EQ(SymbolTable::sanitize("2fast"), "_2fast");
  EXPECT_EQ(SymbolTable::sanitize(""), "");
  EXPECT_EQ(SymbolTable::sanitize("___"), "");  // no information survives
}

TEST(FrontendSymbols, ClaimDeduplicatesAndSynthesizes) {
  SymbolTable table;
  EXPECT_EQ(table.claim("x", "in_", 0), "x");
  EXPECT_EQ(table.claim("x", "in_", 1), "x_2");
  EXPECT_EQ(table.claim("", "in_", 2), "in_2");
  EXPECT_EQ(table.claim("in_2", "in_", 3), "in_2_2");  // collision with synthesized
}

// --- golden corpus -----------------------------------------------------------

struct GoldenRow {
  const char* file;
  std::size_t inputs;
  std::size_t states;
  std::size_t properties;
  mc::Verdict bmc;
  mc::Verdict pdr;
};

TEST(FrontendCorpus, GoldenCountsAndVerdicts) {
  // Counts and verdicts are pinned: a parser change that silently drops a
  // latch or flips a verdict fails here before it reaches the benches.
  const std::vector<GoldenRow> rows = {
      {"toggle_cex.aag", 0, 1, 1, mc::Verdict::Falsified, mc::Verdict::Falsified},
      {"updown_pair_rt.aag", 2, 24, 1, mc::Verdict::Unknown, mc::Verdict::Proven},
      {"token_ring_rt.aag", 5, 8, 1, mc::Verdict::Unknown, mc::Verdict::Proven},
      {"lfsr16_rt.aig", 1, 16, 1, mc::Verdict::Unknown, mc::Verdict::Unknown},
      {"counter_wrap.btor2", 0, 1, 1, mc::Verdict::Unknown, mc::Verdict::Proven},
      {"toggle_bad.btor2", 0, 1, 1, mc::Verdict::Falsified, mc::Verdict::Falsified},
      {"rotate_onehot.btor2", 0, 1, 2, mc::Verdict::Unknown, mc::Verdict::Proven},
      {"rot_barrel.btor2", 0, 2, 2, mc::Verdict::Unknown, mc::Verdict::Proven},
      {"sdiv_props.btor2", 1, 1, 2, mc::Verdict::Unknown, mc::Verdict::Proven},
  };
  for (const GoldenRow& row : rows) {
    SCOPED_TRACE(row.file);
    auto task = flow::VerificationTask::from_file(corpus_path(row.file));
    EXPECT_EQ(task.ts.inputs().size(), row.inputs);
    EXPECT_EQ(task.ts.states().size(), row.states);
    EXPECT_EQ(task.ts.num_properties(), row.properties);
    EXPECT_EQ(task.target_indices.size(), row.properties);
    EXPECT_EQ(run_engine(mc::EngineKind::Bmc, task, 12), row.bmc);
    EXPECT_EQ(run_engine(mc::EngineKind::Pdr, task, 12), row.pdr);
  }
}

TEST(FrontendCorpus, PropertyNamesAreStable) {
  // Named properties keep their (sanitized) names; anonymous ones get the
  // positional bad_N fallback — the anchor for --property overrides and
  // lemma files.
  auto named = flow::VerificationTask::from_file(corpus_path("counter_wrap.btor2"));
  EXPECT_EQ(named.ts.property(0).name, "count_hits_seven");

  auto pair = flow::VerificationTask::from_file(corpus_path("rotate_onehot.btor2"));
  ASSERT_EQ(pair.ts.num_properties(), 2u);
  EXPECT_EQ(pair.ts.property(0).name, "ring_dead");
  EXPECT_EQ(pair.ts.property(1).name, "rebuild_mismatch");

  auto symbols = flow::VerificationTask::from_file(corpus_path("toggle_cex.aag"));
  EXPECT_EQ(symbols.ts.property(0).name, "toggles_high");
  EXPECT_NE(symbols.ts.lookup("latch"), nullptr);

  auto anonymous = parse_aiger("aag 1 0 1 0 0 1\n2 3 0\n2\n");
  EXPECT_EQ(anonymous.property(0).name, "bad_0");
  EXPECT_NE(anonymous.lookup("latch_0"), nullptr);
}

TEST(FrontendCorpus, UglySymbolNamesBecomeLegalIdentifiers) {
  // HWMCC symbol names carry brackets and dots; they must come out as legal
  // SVA identifiers or lemma files over this design would not re-parse.
  const std::string text =
      "aag 1 0 1 0 0 1\n2 3 0\n2\nl0 regs[3].q\nb0 bad!state\n";
  ir::TransitionSystem ts = parse_aiger(text);
  EXPECT_NE(ts.lookup("regs_3__q"), nullptr);
  EXPECT_EQ(ts.property(0).name, "bad_state");
}

TEST(FrontendCorpus, OutputsBecomeBadsOnlyWithoutBSection) {
  // AIGER 1.0 files (no B count) follow the HWMCC'10 convention: outputs
  // are the bad-state literals.
  ir::TransitionSystem v10 = parse_aiger("aag 1 0 1 1 0\n2 3 0\n2\n");
  EXPECT_EQ(v10.num_properties(), 1u);
  EXPECT_TRUE(v10.signals().empty());

  // With an explicit (even zero) B section, outputs stay named signals.
  ir::TransitionSystem v19 = parse_aiger("aag 1 0 1 1 0 0\n2 3 0\n2\n");
  EXPECT_EQ(v19.num_properties(), 0u);
  EXPECT_EQ(v19.signals().size(), 1u);
}

TEST(FrontendCorpus, NextlessStatesSynthesizeInputsInDeclarationOrder) {
  // States without `next` become fresh inputs; their positions must follow
  // declaration order, not unordered_map iteration order, or input columns
  // (and --dump-aiger output) would vary across standard libraries.
  const std::string text =
      "1 sort bitvec 1\n"
      "2 state 1 b\n"
      "3 state 1 a\n"
      "4 state 1 c\n"
      "5 next 1 4 2\n";
  ir::TransitionSystem ts = parse_btor2(text);
  ASSERT_EQ(ts.inputs().size(), 2u);
  EXPECT_EQ(ts.inputs()[0]->name(), "b_next");
  EXPECT_EQ(ts.inputs()[1]->name(), "a_next");
}

// --- malformed inputs --------------------------------------------------------

struct MalformedRow {
  const char* label;
  const char* text;
  const char* expect;  ///< substring of the ParseError message
};

void expect_located_error(const std::string& file,
                          const std::vector<MalformedRow>& rows,
                          ir::TransitionSystem (*parse)(std::string_view,
                                                        const std::string&)) {
  for (const MalformedRow& row : rows) {
    SCOPED_TRACE(row.label);
    try {
      (void)parse(row.text, file);
      FAIL() << "expected ParseError, parsed successfully";
    } catch (const ParseError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(row.expect), std::string::npos)
          << "message was: " << message;
      // Every error is located: "file:line" (or "file:<byte N>" for the
      // binary gate section).
      EXPECT_EQ(message.rfind(file + ":", 0), 0u) << "message was: " << message;
    }
  }
}

TEST(FrontendErrors, AigerMalformedTable) {
  const std::vector<MalformedRow> rows = {
      {"empty file", "", "empty file"},
      {"whitespace only", " \n\t\r\n", "empty file"},
      {"bad magic", "agg 1 0 0 0 0\n", "not an AIGER file"},
      {"truncated header", "aag 1 0\n", "truncated header"},
      {"non-numeric count", "aag x 0 0 0 0\n", "non-numeric"},
      {"inconsistent header", "aag 1 2 0 0 0\n2\n4\n", "exceeds M"},
      {"dangling output literal", "aag 1 0 0 1 0\n6\n", "dangling"},
      {"odd input literal", "aag 1 1 0 0 0\n3\n", "must be even"},
      {"latch missing next", "aag 1 0 1 0 0\n2\n", "missing its next-state"},
      {"bad latch reset", "aag 1 0 1 0 0\n2 2 3\n", "latch reset must be 0, 1"},
      {"gate line too short", "aag 2 0 0 0 2\n2 1\n4 2 2\n", "'lhs rhs0 rhs1'"},
      {"combinational cycle", "aag 2 0 0 1 2\n2\n2 4 4\n4 2 2\n",
       "combinational cycle"},
      {"justice section", "aag 0 0 0 0 0 0 0 1\n", "justice/fairness"},
      {"binary gate section truncated", "aig 1 0 0 1 1\n2\n",
       "end of binary gate section"},
      // The I + L + A sum wraps around 2^64; a naive consistency check
      // passes and the binary prelude writes far out of bounds.
      {"wrapping binary header",
       "aig 3 9223372036854775808 9223372036854775808 0 0\n", "exceeds M"},
      {"wrapping ascii header",
       "aag 3 9223372036854775808 0 0 9223372036854775810\n", "exceeds M"},
  };
  expect_located_error("t.aag", rows, &parse_aiger);
}

TEST(FrontendErrors, Btor2MalformedTable) {
  const std::vector<MalformedRow> rows = {
      {"empty file", "", "empty file"},
      {"comments only", "; nothing here\n", "empty file"},
      {"wide sort", "1 sort bitvec 65\n", "supported widths are 1..64"},
      {"zero-width sort", "1 sort bitvec 0\n", "supported widths are 1..64"},
      {"array sort", "1 sort array 2 2\n", "array sorts are not supported"},
      {"non-numeric id", "x sort bitvec 1\n", "non-numeric"},
      {"unknown operator", "1 sort bitvec 1\n2 frobnicate 1\n",
       "unknown BTOR2 operator"},
      {"undefined node", "1 sort bitvec 1\n2 not 1 5\n", "undefined node"},
      {"undefined sort", "2 zero 7\n", "undefined sort"},
      {"duplicate id", "1 sort bitvec 1\n1 sort bitvec 1\n", "defined twice"},
      {"duplicate next",
       "1 sort bitvec 1\n2 zero 1\n3 state 1\n4 next 1 3 2\n5 next 1 3 2\n",
       "duplicate next"},
      {"wide bad", "1 sort bitvec 2\n2 zero 1\n3 bad 2\n", "width 1"},
      {"reversed slice", "1 sort bitvec 4\n2 sort bitvec 2\n3 zero 1\n"
                         "4 slice 2 3 1 2\n",
       "reversed"},
      {"width mismatch",
       "1 sort bitvec 2\n2 sort bitvec 3\n3 zero 1\n4 zero 2\n5 add 1 3 4\n",
       "widths differ"},
      {"justice", "1 sort bitvec 1\n2 input 1\n3 justice 1 2\n",
       "not supported"},
      {"signed division overflow", "1 sort bitvec 4\n2 one 1\n3 sdivo 1 2 2\n",
       "not supported"},
      {"rotate width mismatch",
       "1 sort bitvec 4\n2 sort bitvec 2\n3 zero 1\n4 zero 2\n5 rol 1 3 4\n",
       "widths differ"},
      {"smod width mismatch",
       "1 sort bitvec 4\n2 sort bitvec 2\n3 zero 1\n4 zero 2\n5 smod 1 3 4\n",
       "widths differ"},
      {"sdiv missing operand", "1 sort bitvec 4\n2 one 1\n3 sdiv 1 2\n",
       "<id> <op> <sort> <a> <b>"},
      {"binary constant wrong length", "1 sort bitvec 4\n2 const 1 101\n",
       "sort is 4 bits"},
      {"constant overflow", "1 sort bitvec 3\n2 constd 1 9\n",
       "does not fit"},
  };
  expect_located_error("t.btor2", rows, &parse_btor2);
}

// --- writer round-trip -------------------------------------------------------

std::size_t total_bits(const std::vector<ir::NodeRef>& nodes) {
  std::size_t bits = 0;
  for (const ir::NodeRef node : nodes) bits += node->width();
  return bits;
}

/// The round-tripped system names each bit of a word-level leaf
/// `<name>_<bit>` (plain `<name>` at width 1).
ir::NodeRef bit_of(const ir::TransitionSystem& rt, const ir::NodeRef leaf,
                   unsigned bit) {
  const std::string name = leaf->width() == 1
                               ? leaf->name()
                               : leaf->name() + "_" + std::to_string(bit);
  const ir::NodeRef node = rt.lookup(name);
  EXPECT_NE(node, nullptr) << "missing round-trip leaf " << name;
  return node;
}

/// Drive the original word-level system and its bit-blasted round-trip with
/// identical stimulus and require bit-identical state trajectories and
/// property values at every step.
void expect_sim_equivalent(const ir::TransitionSystem& ts,
                           const ir::TransitionSystem& rt, std::uint64_t seed,
                           std::size_t steps) {
  util::Xoshiro256 rng(seed);
  sim::Assignment env, rt_env;
  auto set_bits = [&](const ir::NodeRef leaf, std::uint64_t value) {
    env[leaf] = value;
    for (unsigned b = 0; b < leaf->width(); ++b) {
      rt_env[bit_of(rt, leaf, b)] = (value >> b) & 1;
    }
  };
  for (const ir::StateVar& sv : ts.states()) {
    // Unconstrained initial values stay unconstrained through the writer;
    // drive both sides with the same random choice.
    const std::uint64_t value =
        sv.init != nullptr ? sim::evaluate(sv.init, {}) : rng.bits(sv.var->width());
    set_bits(sv.var, value);
  }
  for (std::size_t step = 0; step < steps; ++step) {
    for (const ir::NodeRef input : ts.inputs()) {
      set_bits(input, rng.bits(input->width()));
    }
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      ASSERT_EQ(sim::evaluate(ts.property(p).expr, env),
                sim::evaluate(rt.property(p).expr, rt_env))
          << "property " << ts.property(p).name << " diverges at step " << step;
    }
    const sim::Assignment next = sim::step(ts, env);
    const sim::Assignment rt_next = sim::step(rt, rt_env);
    for (const ir::StateVar& sv : ts.states()) {
      env[sv.var] = next.at(sv.var);
      for (unsigned b = 0; b < sv.var->width(); ++b) {
        const ir::NodeRef rt_bit = bit_of(rt, sv.var, b);
        rt_env[rt_bit] = rt_next.at(rt_bit);
      }
    }
    // Trajectories must stay bit-identical, not just property-equivalent.
    for (const ir::StateVar& sv : ts.states()) {
      for (unsigned b = 0; b < sv.var->width(); ++b) {
        ASSERT_EQ((env[sv.var] >> b) & 1, rt_env[bit_of(rt, sv.var, b)])
            << sv.var->name() << " bit " << b << " diverges at step " << step;
      }
    }
  }
}

TEST(FrontendRoundTrip, EveryZooDesignSurvivesWriterReaderLoop) {
  // Pinned verdict-equivalence bounds. dual_accumulator's bit-blasted
  // multiplier makes the k>=3 induction queries explode (minutes, not ms),
  // so its bound sits where both sides still answer quickly; the comparison
  // is identical-verdict, not proven-verdict, so a low bound loses nothing.
  auto pinned_bound = [](const std::string& name) -> std::size_t {
    if (name == "dual_accumulator") return 2;
    if (name == "fifo_ctrl") return 6;
    return 12;
  };
  for (const auto& info : designs::all_designs()) {
    SCOPED_TRACE(info.name);
    auto task = designs::make_task(info.name);
    const std::string aag = write_aiger(task.ts);
    ir::TransitionSystem rt = parse_aiger(aag, info.name + ".aag");

    // Structural equivalence: one AIGER object per bit of every leaf, one
    // bad-state literal per Target property.
    EXPECT_EQ(rt.inputs().size(), total_bits(task.ts.inputs()));
    std::vector<ir::NodeRef> state_vars;
    for (const ir::StateVar& sv : task.ts.states()) state_vars.push_back(sv.var);
    EXPECT_EQ(rt.states().size(), total_bits(state_vars));
    EXPECT_EQ(rt.num_properties(), task.target_indices.size());
    for (std::size_t t = 0; t < task.target_indices.size(); ++t) {
      EXPECT_EQ(rt.property(t).name,
                task.ts.property(task.target_indices[t]).name);
    }

    expect_sim_equivalent(task.ts, rt, /*seed=*/7 + task.target_indices.size(),
                          /*steps=*/20);

    // The properties re-prove with identical verdicts at the pinned bound.
    auto rt_task = flow::VerificationTask{};
    rt_task.name = info.name + "_rt";
    rt_task.ts = std::move(rt);
    for (std::size_t i = 0; i < rt_task.ts.num_properties(); ++i) {
      rt_task.target_indices.push_back(i);
    }
    const std::size_t bound = pinned_bound(info.name);
    EXPECT_EQ(run_engine(mc::EngineKind::Portfolio, task, bound),
              run_engine(mc::EngineKind::Portfolio, rt_task, bound));
  }
}

TEST(FrontendRoundTrip, BinaryWriterMatchesAsciiWriterOverTheZoo) {
  // write_aiger_binary must encode the *same* model as write_aiger: parse
  // both renderings and require the re-rendered ASCII to be byte-identical
  // (same structure, names and property order), plus lockstep-simulation
  // equivalence of the binary round trip against the original system.
  for (const auto& info : designs::all_designs()) {
    SCOPED_TRACE(info.name);
    auto task = designs::make_task(info.name);
    const std::string aag = write_aiger(task.ts);
    const std::string aig = write_aiger_binary(task.ts);
    ASSERT_EQ(aig.compare(0, 4, "aig "), 0);
    EXPECT_LT(aig.size(), aag.size());  // the delta encoding must actually pay

    ir::TransitionSystem from_ascii = parse_aiger(aag, info.name + ".aag");
    ir::TransitionSystem from_binary = parse_aiger(aig, info.name + ".aig");
    EXPECT_EQ(write_aiger(from_ascii), write_aiger(from_binary));
    expect_sim_equivalent(task.ts, from_binary,
                          /*seed=*/31 + task.target_indices.size(), /*steps=*/20);
  }
}

TEST(FrontendRoundTrip, WriterFileDispatchPicksBinaryForAigExtension) {
  // write_aiger_file routes on a case-insensitive extension, which is what
  // --dump-aiger (it calls write_aiger_file) and corpus generation rely on.
  auto task = designs::make_task("sync_counters");
  const std::string aag_path = testing::TempDir() + "genfv_writer_rt.aag";
  const std::string aig_path = testing::TempDir() + "genfv_writer_rt.aig";
  const std::string upper_path = testing::TempDir() + "genfv_writer_rt_upper.AIG";
  write_aiger_file(aag_path, task.ts);
  write_aiger_file(aig_path, task.ts);
  write_aiger_file(upper_path, task.ts);
  EXPECT_EQ(read_bytes(aag_path), write_aiger(task.ts));
  EXPECT_EQ(read_bytes(aig_path), write_aiger_binary(task.ts));
  EXPECT_EQ(read_bytes(upper_path), write_aiger_binary(task.ts));
  ir::TransitionSystem from_ascii = read_aiger_file(aag_path);
  ir::TransitionSystem from_binary = read_aiger_file(aig_path);
  EXPECT_EQ(write_aiger(from_ascii), write_aiger(from_binary));
}

TEST(FrontendRoundTrip, WriterBytesMatchCommittedCorpus) {
  // Three corpus files are the writer's output for zoo designs; any drift in
  // the lowering, its gate order or the rendering shows up here.
  EXPECT_EQ(write_aiger(designs::make_task("updown_pair").ts),
            read_bytes(corpus_path("updown_pair_rt.aag")));
  EXPECT_EQ(write_aiger(designs::make_task("token_ring").ts),
            read_bytes(corpus_path("token_ring_rt.aag")));
  EXPECT_EQ(write_aiger_binary(designs::make_task("lfsr16").ts),
            read_bytes(corpus_path("lfsr16_rt.aig")));
}

TEST(FrontendRoundTrip, FailedWriteLeavesExistingFileUnchanged) {
  // A register initialized from an input has no AIGER reset; the writer
  // throws before it opens the file, so what was there survives.
  ir::TransitionSystem ts;
  const ir::NodeRef seed = ts.add_input("seed", 4);
  const ir::NodeRef reg = ts.add_state("reg", 4);
  ts.set_init(reg, seed);
  ts.set_next(reg, reg);
  const std::string path = testing::TempDir() + "genfv_writer_keep.aag";
  write_aiger_file(path, designs::make_task("sync_counters").ts);
  const std::string before = read_bytes(path);
  ASSERT_FALSE(before.empty());
  EXPECT_THROW(write_aiger_file(path, ts), UsageError);
  EXPECT_EQ(read_bytes(path), before);
}

TEST(FrontendRoundTrip, WriterPreservesNamedSignalsAsOutputs) {
  // A 1.9 file's O section must survive a parse -> write -> parse loop: the
  // writer emits signals as outputs with o-symbols and always includes the B
  // field so the reader never reinterprets them as bad literals.
  const std::string text = "aag 1 0 1 1 0 1\n2 3 0\n2\n3\nl0 reg\no0 probe\nb0 stuck\n";
  ir::TransitionSystem ts = parse_aiger(text);
  ASSERT_EQ(ts.signals().size(), 1u);

  const std::string aag = write_aiger(ts);
  ir::TransitionSystem rt = parse_aiger(aag, "rt.aag");
  ASSERT_EQ(rt.signals().size(), 1u);
  EXPECT_EQ(rt.signals()[0].first, "probe");
  EXPECT_EQ(rt.num_properties(), 1u);
  EXPECT_EQ(rt.property(0).name, "stuck");

  // Signals alone (no properties) must still round-trip as signals, which
  // requires an explicit zero B field in the emitted header.
  ir::TransitionSystem no_bads = parse_aiger("aag 1 0 1 1 0 0\n2 3 0\n2\no0 probe\n");
  ir::TransitionSystem no_bads_rt = parse_aiger(write_aiger(no_bads), "rt.aag");
  EXPECT_EQ(no_bads_rt.num_properties(), 0u);
  ASSERT_EQ(no_bads_rt.signals().size(), 1u);
  EXPECT_EQ(no_bads_rt.signals()[0].first, "probe");
}

TEST(FrontendRoundTrip, UnsanitizableAndDuplicatePropertyNamesStillRoundTrip) {
  // A property whose name sanitizes to nothing must come out as a stable
  // synthesized bad_N symbol (not an unnamed 'b0' line the reader rejects),
  // and duplicate property names must resolve identically on both sides.
  ir::TransitionSystem ts = parse_aiger("aag 1 0 1 0 0 2\n2 3 0\n2\n3\n");
  ASSERT_EQ(ts.num_properties(), 2u);
  ts.property(0).name = "!!!";   // sanitizes to empty
  ts.property(1).name = "bad_0"; // collides with the synthesized fallback

  const std::string aag = write_aiger(ts);
  ir::TransitionSystem rt = parse_aiger(aag, "rt.aag");
  ASSERT_EQ(rt.num_properties(), 2u);
  EXPECT_EQ(rt.property(0).name, "bad_0");
  EXPECT_EQ(rt.property(1).name, "bad_0_2");
  // And the emitted names already match: a second trip is byte-stable.
  ir::TransitionSystem rt2 = parse_aiger(write_aiger(rt), "rt2.aag");
  EXPECT_EQ(rt2.property(0).name, "bad_0");
  EXPECT_EQ(rt2.property(1).name, "bad_0_2");
}

// --- lemma-file name round-trip ---------------------------------------------

TEST(FrontendLemmas, InvariantClausesRoundTripThroughLemmaFile) {
  // PDR proves a frontend-sourced design, its invariant clauses (written in
  // terms of frontend-synthesized names) go out through the lemma-file
  // format and must come back re-provable — the full --emit-lemmas /
  // --use-lemmas loop for parsed designs.
  auto task = flow::VerificationTask::from_file(corpus_path("token_ring_rt.aag"));
  mc::EngineOptions options;
  options.max_steps = 12;
  auto engine = mc::make_engine(mc::EngineKind::Pdr, task.ts, options);
  const mc::EngineResult result = engine->prove_all(task.target_exprs());
  ASSERT_EQ(result.verdict, mc::Verdict::Proven);
  ASSERT_FALSE(result.invariant.empty());

  std::vector<std::string> svas;
  for (const ir::NodeRef clause : result.invariant) {
    svas.push_back(ir::to_string(clause));
  }
  const std::string file_text = flow::render_lemma_file(task.name, svas);
  const std::vector<std::string> texts = flow::parse_lemma_file(file_text);
  ASSERT_EQ(texts.size(), svas.size());

  flow::LemmaManager manager(task, {{.max_k = 12}, {}});
  manager.process(texts);
  EXPECT_EQ(manager.lemma_exprs().size(), texts.size())
      << "an invariant clause failed to re-parse or re-prove";
}

// --- differential fuzz -------------------------------------------------------

/// A random (but well-formed) AIGER net-list in standard variable order.
struct RandomAig {
  unsigned num_inputs = 0;
  unsigned num_latches = 0;
  /// Per latch: {next literal, reset (0 / 1 / 2 == uninitialized)}.
  std::vector<std::array<unsigned, 2>> latches;
  /// Per gate: {rhs0, rhs1}; gate g defines variable I + L + 1 + g and only
  /// references earlier variables, so the net-list is acyclic by
  /// construction.
  std::vector<std::array<unsigned, 2>> gates;
  unsigned bad_lit = 0;

  unsigned num_vars() const {
    return num_inputs + num_latches + static_cast<unsigned>(gates.size());
  }

  std::string to_ascii() const {
    std::string out = "aag " + std::to_string(num_vars()) + " " +
                      std::to_string(num_inputs) + " " +
                      std::to_string(num_latches) + " 0 " +
                      std::to_string(gates.size()) + " 1\n";
    for (unsigned i = 0; i < num_inputs; ++i) {
      out += std::to_string(2 * (i + 1)) + "\n";
    }
    for (unsigned l = 0; l < num_latches; ++l) {
      const unsigned lit = 2 * (num_inputs + 1 + l);
      out += std::to_string(lit) + " " + std::to_string(latches[l][0]);
      out += " " + std::to_string(latches[l][1] == 2 ? lit : latches[l][1]);
      out += "\n";
    }
    out += std::to_string(bad_lit) + "\n";
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const unsigned lhs = 2 * (num_inputs + num_latches + 1 + static_cast<unsigned>(g));
      out += std::to_string(lhs) + " " + std::to_string(gates[g][0]) + " " +
             std::to_string(gates[g][1]) + "\n";
    }
    return out;
  }

  /// The same net-list in the binary format (delta-encoded gate section),
  /// so every fuzz seed also exercises the varint decoder.
  std::string to_binary() const {
    std::string out = "aig " + std::to_string(num_vars()) + " " +
                      std::to_string(num_inputs) + " " +
                      std::to_string(num_latches) + " 0 " +
                      std::to_string(gates.size()) + " 1\n";
    for (unsigned l = 0; l < num_latches; ++l) {
      const unsigned lit = 2 * (num_inputs + 1 + l);
      out += std::to_string(latches[l][0]);
      out += " " + std::to_string(latches[l][1] == 2 ? lit : latches[l][1]);
      out += "\n";
    }
    out += std::to_string(bad_lit) + "\n";
    auto put_varint = [&out](unsigned value) {
      while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
      }
      out.push_back(static_cast<char>(value));
    };
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const unsigned lhs = 2 * (num_inputs + num_latches + 1 + static_cast<unsigned>(g));
      const unsigned hi = std::max(gates[g][0], gates[g][1]);
      const unsigned lo = std::min(gates[g][0], gates[g][1]);
      put_varint(lhs - hi);
      put_varint(hi - lo);
    }
    return out;
  }
};

RandomAig random_aig(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  RandomAig aig;
  aig.num_inputs = 1 + static_cast<unsigned>(rng.below(3));
  aig.num_latches = 1 + static_cast<unsigned>(rng.below(4));
  const unsigned num_gates = static_cast<unsigned>(rng.below(13));
  for (unsigned g = 0; g < num_gates; ++g) {
    // Any literal over the constants and the variables defined so far.
    const unsigned ceiling = 2 * (aig.num_inputs + aig.num_latches + 1 + g);
    aig.gates.push_back({static_cast<unsigned>(rng.below(ceiling)),
                         static_cast<unsigned>(rng.below(ceiling))});
  }
  const unsigned num_lits = 2 * (aig.num_vars() + 1);
  for (unsigned l = 0; l < aig.num_latches; ++l) {
    aig.latches.push_back({static_cast<unsigned>(rng.below(num_lits)),
                           static_cast<unsigned>(rng.below(3))});
  }
  aig.bad_lit = static_cast<unsigned>(rng.below(num_lits));
  return aig;
}

/// Independent reference semantics: evaluate the net-list directly over the
/// literal encoding, with none of the frontend's or IR's machinery.
struct RefSim {
  const RandomAig& aig;
  std::vector<std::uint8_t> latch_state;

  explicit RefSim(const RandomAig& a, util::Xoshiro256& rng) : aig(a) {
    for (unsigned l = 0; l < aig.num_latches; ++l) {
      const unsigned reset = aig.latches[l][1];
      latch_state.push_back(reset == 2 ? static_cast<std::uint8_t>(rng.below(2))
                                       : static_cast<std::uint8_t>(reset));
    }
  }

  /// Returns the bad literal's value, then advances the latches.
  bool step(const std::vector<std::uint8_t>& input_bits) {
    std::vector<std::uint8_t> value(aig.num_vars() + 1, 0);
    for (unsigned i = 0; i < aig.num_inputs; ++i) value[i + 1] = input_bits[i];
    for (unsigned l = 0; l < aig.num_latches; ++l) {
      value[aig.num_inputs + 1 + l] = latch_state[l];
    }
    auto lit = [&value](unsigned literal) -> std::uint8_t {
      return value[literal >> 1] ^ (literal & 1);
    };
    for (std::size_t g = 0; g < aig.gates.size(); ++g) {
      value[aig.num_inputs + aig.num_latches + 1 + g] =
          lit(aig.gates[g][0]) & lit(aig.gates[g][1]);
    }
    const bool bad = lit(aig.bad_lit) != 0;
    for (unsigned l = 0; l < aig.num_latches; ++l) {
      latch_state[l] = lit(aig.latches[l][0]);
    }
    return bad;
  }
};

TEST(FrontendFuzz, ParserMatchesReferenceSimulatorAndEnginesAgree) {
  constexpr std::uint64_t kSeeds = 200;
  constexpr std::size_t kSimSteps = 16;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomAig aig = random_aig(seed);
    ir::TransitionSystem ts = parse_aiger(aig.to_ascii(), "fuzz.aag");
    ir::TransitionSystem ts_bin = parse_aiger(aig.to_binary(), "fuzz.aig");
    ASSERT_EQ(ts.inputs().size(), aig.num_inputs);
    ASSERT_EQ(ts.states().size(), aig.num_latches);
    ASSERT_EQ(ts_bin.states().size(), aig.num_latches);

    // Differential simulation: reference net-list vs the parsed systems
    // (ASCII and binary in lock-step) under identical stimulus.
    util::Xoshiro256 rng(seed * 1000003);
    RefSim ref(aig, rng);
    sim::Assignment env, env_bin;
    for (unsigned l = 0; l < aig.num_latches; ++l) {
      env[ts.states()[l].var] = ref.latch_state[l];
      env_bin[ts_bin.states()[l].var] = ref.latch_state[l];
    }
    for (std::size_t step = 0; step < kSimSteps; ++step) {
      std::vector<std::uint8_t> input_bits;
      for (unsigned i = 0; i < aig.num_inputs; ++i) {
        input_bits.push_back(static_cast<std::uint8_t>(rng.below(2)));
        env[ts.inputs()[i]] = input_bits.back();
        env_bin[ts_bin.inputs()[i]] = input_bits.back();
      }
      // Property is !bad; evaluate before the latch update, like the ref.
      const std::uint64_t not_bad = sim::evaluate(ts.property(0).expr, env);
      const std::uint64_t not_bad_bin =
          sim::evaluate(ts_bin.property(0).expr, env_bin);
      const bool ref_bad = ref.step(input_bits);
      ASSERT_EQ(not_bad, ref_bad ? 0u : 1u) << "ASCII diverges at step " << step;
      ASSERT_EQ(not_bad_bin, ref_bad ? 0u : 1u)
          << "binary diverges at step " << step;
      const sim::Assignment next = sim::step(ts, env);
      const sim::Assignment next_bin = sim::step(ts_bin, env_bin);
      for (unsigned l = 0; l < aig.num_latches; ++l) {
        env[ts.states()[l].var] = next.at(ts.states()[l].var);
        env_bin[ts_bin.states()[l].var] = next_bin.at(ts_bin.states()[l].var);
        ASSERT_EQ(env[ts.states()[l].var],
                  static_cast<std::uint64_t>(ref.latch_state[l]))
            << "latch " << l << " diverges at step " << step;
      }
    }

    // Engine cross-validation: BMC and PDR must never contradict each other
    // on the same parsed design.
    mc::EngineOptions options;
    options.max_steps = 8;
    auto bmc = mc::make_engine(mc::EngineKind::Bmc, ts, options);
    const mc::Verdict bmc_verdict =
        bmc->prove_all({ts.property(0).expr}).verdict;
    options.max_steps = 12;
    auto pdr = mc::make_engine(mc::EngineKind::Pdr, ts, options);
    const mc::Verdict pdr_verdict =
        pdr->prove_all({ts.property(0).expr}).verdict;
    if (bmc_verdict == mc::Verdict::Falsified) {
      EXPECT_EQ(pdr_verdict, mc::Verdict::Falsified)
          << "BMC found a cex PDR missed";
    }
    if (pdr_verdict == mc::Verdict::Proven) {
      EXPECT_NE(bmc_verdict, mc::Verdict::Falsified)
          << "PDR proved a property BMC falsifies";
    }
  }
}

}  // namespace
}  // namespace genfv::frontend
