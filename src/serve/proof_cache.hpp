#pragma once

/// \file proof_cache.hpp
/// Persistent proof cache for the verification server (docs/serve.md).
///
/// Every (transition system, target set) is keyed on `ir::struct_hash` — a
/// semantic-structural hash that survives renames and fresh NodeManagers,
/// and changes under any semantic edit. A Proven
/// run's inductive invariant is stored as `mc::pdr::Cube`s, one blocked cube
/// per clause (state declaration index + bit + polarity per literal), the
/// same manager-neutral currency PDR's frame database uses: it carries no
/// NodeRef, so an entry written by one process renders cleanly into any
/// later process's NodeManager (`pdr::clause_expr`).
///
/// Soundness story (the part that makes a *persistent* cache safe):
/// **cached invariants are candidates, never facts.**
///  * An **exact hit** (system and property hash both match) replays the
///    stored clauses through an inductive-invariant check over the
///    *current* system (`recertify`), one SAT query per clause — an
///    independent proof that targets ∧ clauses is inductive. Only a
///    passing check yields the cached verdict; a failing one (corrupted
///    entry, hash collision) rejects the entry and falls back to a cold run.
///  * A **near miss** (state-signature similarity above the threshold)
///    feeds the surviving clause subset into PDR as unproven *candidates*
///    (`EngineOptions::pdr_candidate_lemmas`) that must graduate before they
///    count, so a wrong clause can cost work but never soundness
///    (docs/lemmas.md).
///  * A cache file that fails to parse — truncated, hand-edited, version
///    mismatch — is rejected and counted, never "best-effort" trusted.
///
/// Thread-safety: all methods are internally synchronized; lookups hand out
/// `shared_ptr<const CacheEntry>` so a concurrent store/invalidate can never
/// pull an entry out from under a reader.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/struct_hash.hpp"
#include "ir/transition_system.hpp"
#include "mc/engine.hpp"
#include "mc/pdr/cube.hpp"
#include "util/thread_safety.hpp"

namespace genfv::serve {

/// One cached proof. `state_sigs` (per-state width + init/next structural
/// hash, declaration order) is what near-miss diffing runs against — the
/// original system is long gone when the edited design arrives.
struct CacheEntry {
  std::string design;  ///< informational only (reports, file headers)
  std::uint64_t sys_hash = 0;
  std::uint64_t prop_hash = 0;
  std::vector<ir::StateSig> state_sigs;
  std::size_t depth = 0;  ///< depth of the run that produced the proof
  std::vector<mc::pdr::Cube> clauses;  ///< the inductive invariant, as blocked cubes
};

enum class CacheOutcome {
  Miss,   ///< nothing usable
  Exact,  ///< sys+prop hash match; clauses are a recertification candidate
  Near,   ///< similar state space; clauses are PDR candidates
};

std::string to_string(CacheOutcome outcome);

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::Miss;
  std::shared_ptr<const CacheEntry> entry;  ///< non-null unless Miss
  double similarity = 0.0;                  ///< state-signature match fraction
};

class ProofCache {
 public:
  struct Options {
    /// Directory for `<key>.pcache` files; "" = in-memory only.
    std::string dir;
    /// Minimum state-signature similarity for a near miss. Below it, warm
    /// starting would seed mostly-dead clauses — not unsound, just wasted
    /// candidate budget.
    double near_threshold = 0.5;
  };

  /// Loads every parseable entry under `options.dir` (when set); malformed
  /// files are counted as rejected and skipped.
  explicit ProofCache(Options options);

  /// Classify `ts` + targets against the cache. Exact beats Near; among
  /// near misses the highest-similarity entry wins.
  CacheLookup lookup(const ir::TransitionSystem& ts,
                     const std::vector<ir::NodeRef>& targets) const;

  /// Store a Proven result's invariant for `ts` + targets. Returns false —
  /// and stores nothing — unless the verdict is Proven and *every* invariant
  /// clause converts to the manager-neutral form (the set is only jointly
  /// inductive, so a partial store could never recertify).
  bool store(const std::string& design, const ir::TransitionSystem& ts,
             const std::vector<ir::NodeRef>& targets, const mc::EngineResult& result);

  /// Drop the entry for `sys_hash`/`prop_hash` (memory and disk) — called
  /// when recertification refutes it.
  void invalidate(std::uint64_t sys_hash, std::uint64_t prop_hash);

  std::size_t size() const;
  std::uint64_t rejected_files() const;

  /// Combined hash of a target set (order-sensitive: the target list is part
  /// of the job, not a bag).
  static std::uint64_t targets_hash(ir::StructHasher& hasher,
                                    const std::vector<ir::NodeRef>& targets);

  // --- entry (de)serialization, public for tests ----------------------------
  /// One entry as a single-line JSON object with a format tag
  /// (docs/serve.md has the shape).
  static std::string render_entry(const CacheEntry& entry);
  /// Parse a rendering; throws ParseError ("pcache: ...") on any malformed
  /// content — bad JSON, a wrong format tag, a missing or wrong-typed field,
  /// a number that is not whole or out of range, a hash that is not hex.
  static CacheEntry parse_entry(const std::string& text);

 private:
  std::uint64_t load_dir();
  /// Write `entry` to its file (write-then-rename). A failure is logged as
  /// a warning and otherwise ignored: the entry stays in memory.
  void persist(const CacheEntry& entry) const;
  static std::uint64_t entry_key(std::uint64_t sys_hash, std::uint64_t prop_hash);
  std::string entry_path(std::uint64_t key) const;

  const Options options_;
  mutable util::Mutex mu_{"serve.proof_cache"};
  std::map<std::uint64_t, std::shared_ptr<const CacheEntry>> entries_ GENFV_GUARDED_BY(mu_);
  std::uint64_t rejected_ GENFV_GUARDED_BY(mu_) = 0;
};

/// Independent re-certification of a cached invariant Inv (the entry's
/// clauses rendered into `ts`'s manager) for the targets P over the
/// *current* system: Proven iff init ⊨ Inv ∧ P and Inv ∧ P ∧ T ⊨ Inv′ ∧ P′
/// (T includes the environment constraints of both frames), each
/// re-established by fresh SAT queries. One initiation query runs on an
/// init-unrolled solver; consecution runs on one incremental two-frame
/// solver with Inv ∧ P asserted at frame 0, asked ¬c@1 for each clause c in
/// entry order (asserting c@1 once proven) and then ¬P@1: |Inv| + 2 queries
/// in all. Any answer but UNSAT (a model, a spent `conflict_budget`, the
/// `stop` flag) leaves the verdict Unknown, and the entry must then be
/// rejected unless the check was stopped. Clauses that do not fit `ts`
/// (state index out of range) fail the certification immediately, with no
/// SAT call, rather than being silently dropped. Of `base` only
/// `conflict_budget` and `stop` are read. `depth` is 1, the one transition
/// step the check spans.
mc::EngineResult recertify(const ir::TransitionSystem& ts,
                           const std::vector<ir::NodeRef>& targets,
                           const CacheEntry& entry, const mc::EngineOptions& base);

/// Render the subset of `entry.clauses` that still fits `ts` — the
/// near-miss warm-start payload for `EngineOptions::pdr_candidate_lemmas`.
/// Out-of-range clauses are skipped (they name states the edit removed).
std::vector<ir::NodeRef> surviving_clauses(const ir::TransitionSystem& ts,
                                           const CacheEntry& entry);

}  // namespace genfv::serve
