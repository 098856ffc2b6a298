#pragma once

/// \file frame_db.hpp
/// The solver-neutral PDR frame database F_0 ⊆ F_1 ⊆ … ⊆ F_N ⊆ F_∞.
///
/// Blocked cubes are kept in delta encoding exactly like the classic frame
/// trace — each cube is stored only at the highest level where its clause is
/// known to hold, and the semantic frame F_i is the conjunction of all
/// clauses stored at levels ≥ i (plus everything in F_∞). The database holds
/// **no solver state at all**: cubes are `{state-index, bit, polarity}`
/// literals (`StateLit`, the same manager-neutral currency as
/// `mc::ExchangedClause`), so the algorithm layers above the query context
/// never see a solver literal.
///
/// Not thread-safe: one database belongs to one PDR run on one thread.
///
/// Epoch sync: every mutation appends an event to an append-only journal and
/// the epoch is the journal length. The run's `QueryContext` mirrors the
/// database into its solver by replaying `events_since` its last synced
/// epoch — level pushes allocate activation literals, blocked cubes become
/// activation-gated clauses, graduations become ungated F_∞ clauses. Replay
/// order fixes when each activation gate is minted, which is what keeps the
/// solver's variable numbering (and so its SAT trajectory) deterministic. The
/// journal records only additions: subsumption and graduation remove cubes
/// from the *bookkeeping*, but the solver clauses they already produced
/// remain sound (merely redundant).

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mc/pdr/cube.hpp"

namespace genfv::mc::pdr {

/// Pseudo-level of F_∞ (clauses certified invariant).
inline constexpr std::size_t kInfinityLevel = std::numeric_limits<std::size_t>::max();

/// Spurious-blocked offenses before strike_may retracts a candidate: one
/// collision with a rare backward-reachable state is tolerated, a repeat
/// offender is dropped.
inline constexpr std::size_t kCandidateStrikes = 2;

class FrameDb {
 public:
  /// One journal entry. Replay rules for a solver mirror:
  ///  * PushLevel: allocate a fresh activation literal for the new level.
  ///  * Block: assert clause ¬cube gated by the activation of `level`.
  ///  * Graduate: assert clause ¬cube ungated at both solver frames.
  ///  * SeedMay: assert clause ¬cube at frame 0 behind a fresh dedicated
  ///    gate for candidate id `level` (may clauses strengthen queries only
  ///    while assumed; they are never part of a certificate).
  ///  * RetractMay: retire candidate `level`'s gate, permanently disabling
  ///    its clause in this mirror.
  struct Event {
    enum class Kind { PushLevel, Block, Graduate, SeedMay, RetractMay };
    Kind kind = Kind::PushLevel;
    Cube cube;               ///< empty for PushLevel / RetractMay
    std::size_t level = 0;   ///< Block: delta level; Graduate: kInfinityLevel;
                             ///< SeedMay / RetractMay: the candidate id
  };

  /// One live candidate ("may") clause: the cube it blocks plus its stable
  /// id (the mirror's gates are keyed on it). `init_ok` caches the
  /// outcome of the (immutable) initiation check so the may-proof pass runs
  /// it once per candidate, not once per frame iteration.
  struct MayClause {
    Cube cube;
    std::size_t id = 0;
    bool init_ok = false;
    /// Spurious-blocked offenses so far (see strike_may).
    std::size_t strikes = 0;
  };

  /// Starts with level 0 only (the initial-state frame, which never holds
  /// cubes) and an empty journal.
  FrameDb();

  std::size_t levels() const noexcept { return levels_.size(); }
  std::size_t frontier() const noexcept { return levels_.size() - 1; }

  /// Append a new (empty) frontier level.
  void push_level();

  /// Record `cube` as blocked at `level` (1..frontier): drops bookkeeping
  /// for cubes at levels ≤ `level` that the new cube subsumes, then journals
  /// a Block event. Call is_blocked first if double-adding is possible.
  void add_blocked(Cube cube, std::size_t level);

  /// True iff some recorded cube at a level ≥ `level` subsumes `cube`.
  /// (F_∞ is intentionally not consulted — graduated cubes leave the delta
  /// bookkeeping, matching the single-solver engine's behavior.)
  bool is_blocked(const Cube& cube, std::size_t level) const;

  /// Graduate `cube` from `level`'s bookkeeping into F_∞ and journal it.
  /// No-op on the bookkeeping side when the cube is absent from `level`.
  void graduate(const Cube& cube, std::size_t level);

  /// Add a clause directly to F_∞ — for invariants proven *elsewhere* (a
  /// racing member's published F_∞ clauses). The caller vouches that the
  /// clause holds in every reachable state of this system.
  void add_infinity(Cube cube);

  // --- candidate ("may") clauses ---------------------------------------------
  // Unproven candidate clauses assumed in queries behind per-candidate
  // activation gates. Never exported, never part of F_∞ or the delta levels;
  // graduation re-enters through add_blocked on a *clean* proof. Duplicate
  // cubes (keyed on exchange_key) are rejected, including cubes that were
  // seeded before and since retracted — a refuted candidate stays refuted.

  /// Seed `cube` as a candidate. Returns its id, or nullopt for duplicates.
  std::optional<std::size_t> seed_may(Cube cube);

  /// Retract candidate `id` outright (initiation refutation — an immutable
  /// fact). Returns false when already retracted/graduated (idempotent).
  bool retract_may(std::size_t id);

  /// Record one spurious-blocked offense against candidate `id` and retract
  /// it once its strikes reach kCandidateStrikes. Sub-limit strikes are
  /// bookkeeping only (no journal event, mirrors unaffected) — a candidate
  /// that collides once with a rare backward-reachable state keeps helping
  /// until it proves itself a repeat offender. Returns true iff this strike
  /// retracted the candidate.
  bool strike_may(std::size_t id);

  /// Remove candidate `id` from the may set because a clean may-proof
  /// succeeded — the caller follows up with add_blocked for the cube.
  /// Mirrors treat it exactly like a retraction (the gated assumption is
  /// replaced by a real frame clause). Returns false when already gone.
  bool graduate_may(std::size_t id);

  /// Record that candidate `id` passed the initiation check (SAT(init ∧
  /// cube) = False — a fact that can never change). Bookkeeping only; no
  /// journal event, mirrors are unaffected.
  void mark_may_init_ok(std::size_t id);

  /// Live (seeded, not yet retracted/graduated) candidates.
  const std::vector<MayClause>& may_clauses() const noexcept { return may_; }

  /// Lifetime counters for EngineStats.
  std::size_t may_seeded() const noexcept { return next_may_id_; }
  std::size_t may_graduated() const noexcept { return may_graduated_; }
  std::size_t may_retracted() const noexcept { return may_retracted_; }

  /// References are invalidated by the next mutation; copy before mutating.
  const std::vector<Cube>& cubes_at(std::size_t level) const;
  const std::vector<Cube>& infinity() const noexcept { return infinity_; }

  /// Total live (non-subsumed, non-graduated) cubes across all levels.
  std::size_t total_cubes() const;

  /// Journal length; grows monotonically with every mutation.
  std::size_t epoch() const noexcept { return journal_.size(); }

  /// Append journal entries [from, epoch()) to `out`; returns the new epoch.
  std::size_t events_since(std::size_t from, std::vector<Event>* out) const;

 private:
  /// Shared body of retract_may/strike_may/graduate_may: erase, bump
  /// `counter`, journal a RetractMay (mirrors handle all cases identically).
  bool remove_may(std::size_t id, std::size_t* counter);

  std::vector<std::vector<Cube>> levels_;  ///< delta-encoded
  std::vector<Cube> infinity_;
  std::vector<MayClause> may_;                  ///< live candidates
  std::unordered_set<std::string> may_keys_;    ///< ever-seeded keys
  std::size_t next_may_id_ = 0;
  std::size_t may_graduated_ = 0;
  std::size_t may_retracted_ = 0;
  std::vector<Event> journal_;
};

}  // namespace genfv::mc::pdr
