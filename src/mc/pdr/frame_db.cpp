#include "mc/pdr/frame_db.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace genfv::mc::pdr {

FrameDb::FrameDb() { levels_.emplace_back(); }

void FrameDb::push_level() { levels_.emplace_back(); }

void FrameDb::add_blocked(Cube cube, std::size_t level) {
  GENFV_ASSERT(level >= 1 && level < levels_.size(), "cubes live at levels 1..N");
  for (std::size_t i = 1; i <= level; ++i) {
    std::erase_if(levels_[i], [&](const Cube& old) { return subsumes(cube, old); });
  }
  levels_[level].push_back(std::move(cube));
}

bool FrameDb::is_blocked(const Cube& cube, std::size_t level) const {
  for (std::size_t i = level; i < levels_.size(); ++i) {
    for (const Cube& blocked : levels_[i]) {
      if (subsumes(blocked, cube)) return true;
    }
  }
  return false;
}

void FrameDb::graduate(const Cube& cube, std::size_t level) {
  GENFV_ASSERT(level >= 1 && level < levels_.size(), "graduation from levels 1..N");
  std::erase_if(levels_[level], [&](const Cube& old) { return old == cube; });
  infinity_.push_back(cube);
}

const std::vector<Cube>& FrameDb::cubes_at(std::size_t level) const {
  GENFV_ASSERT(level < levels_.size(), "frame level out of range");
  return levels_[level];
}

std::size_t FrameDb::total_cubes() const {
  std::size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

}  // namespace genfv::mc::pdr
