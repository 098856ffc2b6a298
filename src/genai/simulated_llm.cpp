#include "genai/simulated_llm.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "genai/prompt.hpp"
#include "hdl/elaborator.hpp"
#include "ir/substitute.hpp"
#include "sva/compiler.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace genfv::genai {

namespace {

/// Extract the body of the first fenced block opened by `fence`.
std::string extract_fenced(const std::string& text, const char* fence) {
  const std::size_t open = text.find(fence);
  if (open == std::string::npos) return {};
  const std::size_t body_start = text.find('\n', open);
  if (body_start == std::string::npos) return {};
  const std::size_t close = text.find(marker::kFenceClose, body_start + 1);
  if (close == std::string::npos) return {};
  return text.substr(body_start + 1, close - body_start - 1);
}

std::string extract_line_after(const std::string& text, const char* key) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + std::string(key).size();
  const std::size_t end = text.find('\n', start);
  return util::trim(text.substr(start, end == std::string::npos ? std::string::npos
                                                                : end - start));
}

std::string extract_design_name(const std::string& text) {
  return extract_line_after(text, "## Design:");
}

}  // namespace

std::vector<sim::Assignment> parse_waveform_table(const std::string& waveform,
                                                  const ir::TransitionSystem& ts) {
  std::vector<sim::Assignment> frames;
  std::istringstream in(waveform);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t bar = line.find('|');
    if (bar == std::string::npos) continue;
    const std::string label = util::trim(line.substr(0, bar));
    if (label.empty() || label[0] == '-' || label[0] == '(') continue;
    const ir::NodeRef leaf = ts.lookup(label);
    if (leaf == nullptr) continue;

    const auto cells = util::split(line.substr(bar + 1), '|');
    std::size_t frame = 0;
    for (const auto& raw : cells) {
      const std::string cell = util::trim(raw);
      if (cell.empty()) continue;
      std::uint64_t value = 0;
      try {
        value = std::stoull(cell, nullptr, 16);
      } catch (...) {
        continue;  // malformed cell: skip (the model is reading text, after all)
      }
      if (frames.size() <= frame) frames.resize(frame + 1);
      frames[frame][leaf] = value & ir::width_mask(leaf->width());
      ++frame;
    }
  }
  return frames;
}

SimulatedLlm::SimulatedLlm(ModelProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

std::string SimulatedLlm::answer_without_design() const {
  return "I could not locate a parseable RTL design in the request, so I cannot "
         "propose helper assertions. Please include the design source in a "
         "```systemverilog code block.\n";
}

std::vector<CandidateInvariant> SimulatedLlm::mine_candidates(
    const ir::TransitionSystem& ts, const std::vector<sim::Assignment>& samples,
    const std::vector<sim::Assignment>* cex) {
  MiningContext ctx{ts, samples, cex, rng_};
  std::vector<CandidateInvariant> candidates;
  const auto miners = standard_miners();
  const std::size_t enabled =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(profile_.insight, 0)),
                            miners.size());
  for (std::size_t i = 0; i < enabled; ++i) {
    miners[i]->mine(ctx, candidates);
  }
  return candidates;
}

void SimulatedLlm::apply_noise(std::vector<CandidateInvariant>& candidates,
                               const ir::TransitionSystem& ts,
                               const std::vector<sim::Assignment>& samples) {
  // 1. Omissions: genuine findings silently dropped.
  std::vector<CandidateInvariant> kept;
  for (auto& c : candidates) {
    if (rng_.chance(profile_.omission_rate)) continue;
    kept.push_back(std::move(c));
  }
  candidates = std::move(kept);

  // 2. Hallucinations: plausible-but-unvetted assertions. Self-checking
  //    models catch most of them before answering.
  const auto& states = ts.states();
  std::vector<CandidateInvariant> fabricated;
  const std::size_t tries = candidates.size() + 2;
  for (std::size_t t = 0; t < tries; ++t) {
    if (!rng_.chance(profile_.hallucination_rate)) continue;
    if (profile_.self_check && rng_.chance(0.8)) continue;  // caught in review
    if (states.empty()) break;
    CandidateInvariant c;
    c.origin = "hallucination";
    c.confidence = 0.6;  // the model believes it, that is the problem
    switch (rng_.below(3)) {
      case 0: {  // false equality between random same-width registers
        const auto& a = states[rng_.index(states.size())];
        const auto& b = states[rng_.index(states.size())];
        if (a.var == b.var || a.var->width() != b.var->width()) continue;
        c.sva = "(" + a.var->name() + " == " + b.var->name() + ")";
        c.rationale = "registers '" + a.var->name() + "' and '" + b.var->name() +
                      "' appear to mirror each other";
        break;
      }
      case 1: {  // too-tight bound
        const auto& a = states[rng_.index(states.size())];
        if (a.var->width() < 2) continue;
        std::uint64_t max_seen = 0;
        for (const auto& s : samples) max_seen = std::max(max_seen, sample_value(s, a.var));
        if (max_seen == 0) continue;
        c.sva = "(" + a.var->name() + " <= " +
                util::hex_literal(max_seen / 2, a.var->width()) + ")";
        c.rationale = "register '" + a.var->name() + "' stays in the lower half of its range";
        break;
      }
      default: {  // unjustified one-hot claim
        const auto& a = states[rng_.index(states.size())];
        if (a.var->width() < 2) continue;
        c.sva = "$onehot(" + a.var->name() + ")";
        c.rationale = "register '" + a.var->name() + "' looks like a one-hot state vector";
        break;
      }
    }
    if (!c.sva.empty()) fabricated.push_back(std::move(c));
  }
  for (auto& c : fabricated) candidates.push_back(std::move(c));

  // 3. Syntax corruption.
  for (auto& c : candidates) {
    if (!rng_.chance(profile_.syntax_error_rate)) continue;
    switch (rng_.below(3)) {
      case 0:
        if (!c.sva.empty() && c.sva.back() == ')') c.sva.pop_back();
        break;
      case 1: {
        const std::size_t eq = c.sva.find("==");
        if (eq != std::string::npos) c.sva.replace(eq, 2, "= =");
        break;
      }
      default:
        c.sva += " && missing_signal_q";
        break;
    }
    c.origin += "+syntax_error";
  }
}

std::string SimulatedLlm::render_completion(
    const std::vector<CandidateInvariant>& candidates, const std::string& design_name,
    bool cex_mode) {
  std::ostringstream out;
  if (cex_mode) {
    out << "Looking at the induction-step counterexample for `" << design_name
        << "`, the starting state at t0 violates a relationship that every "
           "reachable state maintains. The following helper assertion(s) "
           "capture it and will rule the spurious trace out of the inductive "
           "step:\n\n";
  } else {
    out << "After reading the specification and the RTL of `" << design_name
        << "`, I propose the following helper assertions. Each should be "
           "proven first and then used as an assumption for the harder "
           "target properties:\n\n";
  }
  int index = 0;
  for (const auto& c : candidates) {
    ++index;
    out << index << ". " << c.rationale << ":\n\n";
    out << "```sva\n"
        << "property helper_" << ++property_counter_ << "; " << c.sva
        << "; endproperty\n```\n\n";
  }
  if (candidates.empty()) {
    out << "I did not find additional invariants beyond the stated targets.\n";
  } else {
    out << "Remember to prove each helper before using it as an assumption; "
           "generated assertions may contain mistakes.\n";
  }
  return out.str();
}

Completion SimulatedLlm::complete(const Prompt& prompt) {
  ++requests_;
  Completion completion;
  completion.model = profile_.name;
  completion.prompt_tokens = estimate_tokens(prompt.system) + estimate_tokens(prompt.user);

  // "Read" the RTL out of the prompt.
  const std::string rtl = extract_fenced(prompt.user, marker::kRtlFenceOpen);
  if (util::trim(rtl).empty()) {
    completion.text = answer_without_design();
    completion.completion_tokens = estimate_tokens(completion.text);
    return completion;
  }

  std::unique_ptr<hdl::ElaborationResult> design;
  try {
    design = std::make_unique<hdl::ElaborationResult>(hdl::elaborate_source(rtl));
  } catch (const Error& e) {
    GENFV_LOG(Debug, "sim-llm") << "prompt RTL did not elaborate: " << e.what();
    completion.text = answer_without_design();
    completion.completion_tokens = estimate_tokens(completion.text);
    return completion;
  }
  ir::TransitionSystem& ts = design->ts;

  // Behavioural evidence: sample reachable states.
  sim::RandomSimulator simulator(ts, rng_.next());
  const std::vector<sim::Assignment> samples = simulator.sample_states(48, 6);

  // Fig. 2 mode: parse the counterexample waveform back out of the text.
  const std::string wave_text = extract_fenced(prompt.user, marker::kWaveFenceOpen);
  std::vector<sim::Assignment> cex_frames;
  const bool cex_mode = !util::trim(wave_text).empty();
  if (cex_mode) cex_frames = parse_waveform_table(wave_text, ts);

  std::vector<CandidateInvariant> candidates =
      mine_candidates(ts, samples, cex_frames.empty() ? nullptr : &cex_frames);

  // CEX-guided focus: prefer (strong models: keep only) candidates that are
  // violated somewhere in the spurious trace — those are the ones that rule
  // the counterexample out.
  if (cex_mode && !cex_frames.empty()) {
    sva::PropertyCompiler compiler(ts);
    auto kills_cex = [&](const CandidateInvariant& c) -> bool {
      try {
        const ir::NodeRef expr = compiler.compile_expr(c.sva);
        const auto leaves = ir::collect_leaves(expr);
        for (const auto& frame : cex_frames) {
          const bool complete_frame = std::all_of(
              leaves.begin(), leaves.end(), [&](ir::NodeRef leaf) { return frame.contains(leaf); });
          if (complete_frame && sim::evaluate(expr, frame) == 0) return true;
        }
      } catch (const Error&) {
        return false;
      }
      return false;
    };
    // A stable sort on the kill flag, evaluated once per candidate.
    std::vector<CandidateInvariant> killers;
    std::vector<CandidateInvariant> others;
    for (auto& c : candidates) (kills_cex(c) ? killers : others).push_back(std::move(c));
    if (!profile_.self_check || killers.empty()) {
      killers.insert(killers.end(), std::make_move_iterator(others.begin()),
                     std::make_move_iterator(others.end()));
    }
    candidates = std::move(killers);
  }

  apply_noise(candidates, ts, samples);

  // Rank and cap like a model with an answer-length budget.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const CandidateInvariant& a, const CandidateInvariant& b) {
                     return a.confidence > b.confidence;
                   });
  if (candidates.size() > profile_.max_candidates) {
    candidates.resize(profile_.max_candidates);
  }

  const std::string design_name = extract_design_name(prompt.user);
  completion.text = render_completion(
      candidates, design_name.empty() ? ts.name() : design_name, cex_mode);
  completion.completion_tokens = estimate_tokens(completion.text);
  completion.latency_seconds =
      0.4 + profile_.seconds_per_1k_tokens *
                (static_cast<double>(completion.completion_tokens) / 1000.0);
  return completion;
}

}  // namespace genfv::genai
