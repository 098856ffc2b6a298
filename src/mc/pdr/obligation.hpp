#pragma once

/// \file obligation.hpp
/// Proof obligations and their priority queue. An obligation is a concrete
/// bad (or bad-reaching) state that must be blocked at a frame level; the
/// queue hands out the lowest-level obligation first, so counterexample
/// construction proceeds backwards towards the initial states before the
/// engine resumes work near the frontier.
///
/// Obligations live in an arena and carry parent links towards the property
/// violation plus the concrete model values needed to rebuild a `sim::Trace`
/// when a chain reaches level 0.

#include <cstdint>
#include <queue>
#include <vector>

#include "mc/pdr/cube.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc::pdr {

struct Obligation {
  /// Full state cube (every bit of every state variable) to block.
  Cube cube;
  /// Frame level the cube must be blocked at.
  std::size_t level = 0;
  /// Concrete state values, one per ts.states() entry.
  std::vector<std::uint64_t> state_values;
  /// Concrete input values (one per ts.inputs() entry) that drive this state
  /// into the parent's state — or, for the root obligation, the inputs under
  /// which the property fails.
  std::vector<std::uint64_t> input_values;
  /// Arena index of the successor obligation (towards the violation); -1 for
  /// the root bad state.
  std::ptrdiff_t parent = -1;
};

/// Not thread-safe; owned by one engine run. Arena entries are never
/// removed, so indices (and the parent links threaded through them) stay
/// valid for the lifetime of the queue — `at()` references are invalidated
/// by `add()`, indices are not.
class ObligationQueue {
 public:
  /// Move an obligation into the arena; returns its arena index.
  std::size_t add(Obligation obligation) {
    arena_.push_back(std::move(obligation));
    if (util::telemetry_on()) queue_created().increment();
    return arena_.size() - 1;
  }

  /// (Re-)schedule an arena entry at its current level. An entry must not be
  /// scheduled twice without an intervening pop.
  void push(std::size_t index) {
    heap_.push({arena_[index].level, seq_++, index});
    if (util::telemetry_on()) queue_depth().add(1);
  }

  bool empty() const noexcept { return heap_.empty(); }

  /// Arena index of the lowest-level (oldest-first on ties) obligation.
  std::size_t pop() {
    const std::size_t index = heap_.top().index;
    heap_.pop();
    if (util::telemetry_on()) queue_depth().add(-1);
    return index;
  }

  Obligation& at(std::size_t index) { return arena_.at(index); }
  const Obligation& at(std::size_t index) const { return arena_.at(index); }

  /// Total obligations ever created (safety-valve metric).
  std::size_t created() const noexcept { return arena_.size(); }

 private:
  // Process-global gauges: several queues may coexist (server workers),
  // but in practice one PDR run dominates and the heartbeat wants a single
  // live depth figure.
  static util::Gauge& queue_depth() {
    static util::Gauge& g = util::metrics().gauge("pdr.obligations_queued");
    return g;
  }
  static util::Counter& queue_created() {
    static util::Counter& c = util::metrics().counter("pdr.obligations_created");
    return c;
  }

  struct Entry {
    std::size_t level;
    std::uint64_t seq;
    std::size_t index;
    /// std::priority_queue is a max-heap; invert for min-(level, seq).
    bool operator<(const Entry& other) const noexcept {
      if (level != other.level) return level > other.level;
      return seq > other.seq;
    }
  };

  std::vector<Obligation> arena_;
  std::priority_queue<Entry> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace genfv::mc::pdr
