#include "genai/mining/miner.hpp"

#include "sim/interpreter.hpp"

namespace genfv::genai {

std::uint64_t sample_value(const sim::Assignment& sample, ir::NodeRef leaf) {
  const auto it = sample.find(leaf);
  return it == sample.end() ? 0 : it->second;
}

std::vector<std::unique_ptr<InvariantMiner>> standard_miners() {
  std::vector<std::unique_ptr<InvariantMiner>> miners;
  miners.push_back(std::make_unique<ResetValueMiner>());
  miners.push_back(std::make_unique<EqualityMiner>());
  miners.push_back(std::make_unique<DifferenceMiner>());
  miners.push_back(std::make_unique<BoundsMiner>());
  miners.push_back(std::make_unique<OneHotMiner>());
  miners.push_back(std::make_unique<ImplicationMiner>());
  miners.push_back(std::make_unique<XorLinearMiner>());
  return miners;
}

}  // namespace genfv::genai
