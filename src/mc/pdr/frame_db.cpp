#include "mc/pdr/frame_db.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace genfv::mc::pdr {

FrameDb::FrameDb() { levels_.emplace_back(); }

void FrameDb::push_level() {
  levels_.emplace_back();
  journal_.push_back({Event::Kind::PushLevel, {}, levels_.size() - 1});
}

void FrameDb::add_blocked(Cube cube, std::size_t level) {
  GENFV_ASSERT(level >= 1 && level < levels_.size(), "cubes live at levels 1..N");
  // The new clause subsumes any weaker clause it implies at this level or
  // below; drop those from the bookkeeping (their mirrored solver clauses
  // remain, which is sound — merely redundant).
  for (std::size_t i = 1; i <= level; ++i) {
    std::erase_if(levels_[i], [&](const Cube& old) { return subsumes(cube, old); });
  }
  levels_[level].push_back(cube);
  journal_.push_back({Event::Kind::Block, std::move(cube), level});
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
  journal_.push_back({Event::Kind::Graduate, cube, kInfinityLevel});
}

std::optional<std::size_t> FrameDb::seed_may(Cube cube) {
  if (!may_keys_.insert(cube_key(cube)).second) {
    return std::nullopt;
  }
  const std::size_t id = next_may_id_++;
  may_.push_back({cube, id});
  journal_.push_back({Event::Kind::SeedMay, std::move(cube), id});
  return id;
}

bool FrameDb::remove_may(std::size_t id, std::size_t* counter) {
  const auto before = may_.size();
  std::erase_if(may_, [&](const MayClause& m) { return m.id == id; });
  if (may_.size() == before) return false;
  ++*counter;
  // Retraction and graduation journal identically: either way the mirror's
  // gated assumption dies (graduation re-enters through a Block event).
  journal_.push_back({Event::Kind::RetractMay, {}, id});
  return true;
}

bool FrameDb::retract_may(std::size_t id) { return remove_may(id, &may_retracted_); }

bool FrameDb::strike_may(std::size_t id) {
  for (MayClause& m : may_) {
    if (m.id != id) continue;
    if (++m.strikes < kCandidateStrikes) return false;  // keep it, on notice
    return remove_may(id, &may_retracted_);
  }
  return false;  // already retracted/graduated
}

bool FrameDb::graduate_may(std::size_t id) { return remove_may(id, &may_graduated_); }

void FrameDb::mark_may_init_ok(std::size_t id) {
  for (MayClause& m : may_) {
    if (m.id == id) m.init_ok = true;
  }
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

std::size_t FrameDb::events_since(std::size_t from, std::vector<Event>* out) const {
  GENFV_ASSERT(out != nullptr, "events_since needs an output vector");
  GENFV_ASSERT(from <= journal_.size(), "epoch from the future");
  out->insert(out->end(), journal_.begin() + static_cast<std::ptrdiff_t>(from),
              journal_.end());
  return journal_.size();
}

}  // namespace genfv::mc::pdr
