/// \file checks.cpp
/// Output checks shared by every workload, plus small seed and source
/// helpers.

#include <algorithm>
#include <filesystem>

#include "designs/design.hpp"
#include "harness.hpp"
#include "sim/interpreter.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace genfv;

void PassStats::fail(const std::string& what) {
  ++errors;
  if (failures.size() < 8) failures.push_back(what);
}

void PassStats::merge(const PassStats& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  jobs += other.jobs;
  errors += other.errors;
  targets += other.targets;
  proven += other.proven;
  llm_tokens += other.llm_tokens;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

bool expected_safe(const std::string& source) {
  return source.find("toggle_bad") == std::string::npos &&
         source.find("toggle_cex") == std::string::npos;
}

std::string check_verdict(const std::string& source, mc::Verdict verdict) {
  if (expected_safe(source) && verdict == mc::Verdict::Falsified) {
    return source + ": safe source reported falsified";
  }
  if (!expected_safe(source) && verdict == mc::Verdict::Proven) {
    return source + ": buggy source reported proven";
  }
  return "";
}

std::string replay_cex(const ir::TransitionSystem& ts, const sim::Trace& cex,
                       const std::vector<ir::NodeRef>& targets) {
  if (cex.empty()) return "empty counterexample";
  try {
    for (const ir::StateVar& s : ts.states()) {
      if (s.init != nullptr &&
          cex.frame(0).at(s.var) != sim::evaluate(s.init, cex.frame(0))) {
        return "frame 0 violates an init expression";
      }
    }
    bool violated = false;
    for (std::size_t i = 0; i < cex.size(); ++i) {
      const sim::Assignment& frame = cex.frame(i);
      if (i > 0) {
        const sim::Assignment next = sim::step(ts, cex.frame(i - 1));
        for (const ir::StateVar& s : ts.states()) {
          if (frame.at(s.var) != next.at(s.var)) {
            return "frame " + std::to_string(i) + " is not sim::step of its predecessor";
          }
        }
      }
      for (const ir::NodeRef c : ts.constraints()) {
        if (sim::evaluate(c, frame) == 0) {
          return "frame " + std::to_string(i) + " violates a constraint";
        }
      }
      for (const ir::NodeRef t : targets) violated = violated || sim::evaluate(t, frame) == 0;
    }
    return violated ? "" : "no target is violated on the replayed trace";
  } catch (const std::exception& e) {
    return std::string("replay threw: ") + e.what();
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  util::splitmix64(state);
  return util::splitmix64(state) & 0x7FFFFFFFFFFFULL;  // stays exact through JSON doubles
}

std::vector<std::string> zoo_designs() {
  std::vector<std::string> names;
  for (const designs::DesignInfo& d : designs::all_designs()) names.push_back(d.name);
  return names;
}

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator("tests/corpus")) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".aag" || ext == ".aig" || ext == ".btor" || ext == ".btor2") {
      files.push_back("tests/corpus/" + entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace perfbench
