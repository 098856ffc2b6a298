#include "flow/review_policy.hpp"

namespace genfv::flow {

namespace {
/// The screen's random runs: restarts x steps, from a fixed seed.
constexpr std::size_t kScreenSteps = 64;
constexpr std::size_t kScreenRestarts = 4;
constexpr std::uint64_t kScreenSeed = 0x5EED;
}  // namespace

std::optional<sim::Trace> ReviewGate::screen(ir::NodeRef expr) {
  if (!policy_.sim_screen) return std::nullopt;
  // Fresh deterministic stream per call so screening one candidate does not
  // change the verdict for the next.
  sim::RandomSimulator simulator(ts_, kScreenSeed + 0x9E37 * (++counter_));
  return simulator.falsify(expr, kScreenSteps, kScreenRestarts);
}

}  // namespace genfv::flow
