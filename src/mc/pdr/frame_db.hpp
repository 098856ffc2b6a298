#pragma once

/// \file frame_db.hpp
/// The solver-neutral PDR frame database F_0 ⊆ F_1 ⊆ … ⊆ F_N ⊆ F_∞.
///
/// Blocked cubes are kept in delta encoding exactly like the classic frame
/// trace — each cube is stored only at the highest level where its clause is
/// known to hold, and the semantic frame F_i is the conjunction of all
/// clauses stored at levels ≥ i (plus everything in F_∞). The database holds
/// **no solver state at all**: cubes are `{state-index, bit, polarity}`
/// literals (`StateLit`, a manager-neutral currency the proof cache stores
/// too), so the algorithm layers above the query context never see a solver
/// literal.
///
/// The run's `QueryContext` owns the database and is its only writer: each
/// of its mutators records the fact here and asserts it in the solver in the
/// same call. Subsumption and graduation remove cubes from this
/// *bookkeeping* only; the solver clauses they already produced remain
/// sound (merely redundant).
///
/// Not thread-safe: one database belongs to one PDR run on one thread.

#include <cstddef>
#include <vector>

#include "mc/pdr/cube.hpp"

namespace genfv::mc::pdr {

class FrameDb {
 public:
  /// Starts with level 0 only (the initial-state frame, which never holds
  /// cubes).
  FrameDb();

  std::size_t levels() const noexcept { return levels_.size(); }
  std::size_t frontier() const noexcept { return levels_.size() - 1; }

  /// Append a new (empty) frontier level.
  void push_level();

  /// Record `cube` as blocked at `level` (1..frontier), dropping the cubes
  /// at levels ≤ `level` that the new cube subsumes. Call is_blocked first
  /// if double-adding is possible.
  void add_blocked(Cube cube, std::size_t level);

  /// True iff some recorded cube at a level ≥ `level` subsumes `cube`.
  /// (F_∞ is intentionally not consulted — graduated cubes leave the delta
  /// bookkeeping.)
  bool is_blocked(const Cube& cube, std::size_t level) const;

  /// Move `cube` from `level`'s bookkeeping into F_∞. No-op on the delta
  /// side when the cube is absent from `level`.
  void graduate(const Cube& cube, std::size_t level);

  /// References are invalidated by the next mutation; copy before mutating.
  const std::vector<Cube>& cubes_at(std::size_t level) const;
  const std::vector<Cube>& infinity() const noexcept { return infinity_; }

  /// Total live (non-subsumed, non-graduated) cubes across all levels.
  std::size_t total_cubes() const;

 private:
  std::vector<std::vector<Cube>> levels_;  ///< delta-encoded
  std::vector<Cube> infinity_;
};

}  // namespace genfv::mc::pdr
