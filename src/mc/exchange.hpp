#pragma once

/// \file exchange.hpp
/// Live in-flight lemma exchange between portfolio members.
///
/// `LemmaMailbox` is the first (and only) cross-thread data path in the
/// engine stack. Portfolio members publish clauses they have established
/// mid-run and poll for clauses published by the other members, so e.g. the
/// k-induction member can absorb PDR's freshly proven invariant clauses
/// while both are still racing — the synergetic lemma sharing of the
/// helper-invariant loop, applied *inside* one portfolio call.
///
/// Thread-safety / ownership rules (the contract that keeps TSan quiet):
///  * `NodeManager` is not thread-safe and is never shared. The mailbox
///    stores clauses in a manager-neutral form (`ExchangedClause`: state
///    declaration index + bit + polarity per literal) that carries no
///    `NodeRef`. Publishers serialize out of their own clone; consumers call
///    `materialize()` to re-create nodes exclusively in *their* clone's
///    manager. `ir::SystemClone` preserves state declaration order, so the
///    indices mean the same thing in every member's clone.
///  * Every mailbox method is internally synchronized by one mutex; any
///    thread may publish or fetch at any time.
///  * Consumers own their read cursor (`fetch`'s in/out parameter), so a
///    fresh engine instance (e.g. a new time slice of the deterministic
///    portfolio) starts at 0 and sees the full backlog — and dedupes it
///    through an `AbsorbFilter`, because re-publishing slices can load the
///    board with many copies of the same fact.
///
/// Soundness rule for absorbing a clause: every mailbox clause is an
/// invariant — it holds in every reachable state (publishers only post
/// PDR's F_∞ survivors) — so consumers may assert it on every frame of every
/// query, exactly like `EngineOptions::lemmas`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "ir/transition_system.hpp"
#include "util/thread_safety.hpp"

namespace genfv::mc {

/// One cube literal in manager-neutral form: bit `bit` of the state variable
/// at declaration index `state`; `negated` means the cube requires 0. The
/// shared fact is the clause ¬cube.
struct ExchangedLit {
  std::uint32_t state = 0;
  std::uint32_t bit = 0;
  bool negated = false;
};

/// A clause published into the mailbox, as the cube it blocks. It holds in
/// every reachable state.
struct ExchangedClause {
  std::vector<ExchangedLit> lits;
};

/// Re-create the clause ¬cube as a width-1 expression over `ts`, creating
/// nodes only in `ts`'s NodeManager — call from the thread that owns it.
/// Returns nullptr when the clause does not fit `ts` (state index or bit out
/// of range), which a consumer treats as "skip, do not absorb".
ir::NodeRef materialize(const ExchangedClause& clause,
                        const ir::TransitionSystem& ts);

/// Canonical key of a clause's manager-neutral form. Equal keys ⇔ the
/// clauses assert the same fact, no matter which member published them or
/// how often.
///
/// This template is the *single* encoder of the `{state-index, bit,
/// polarity}` currency: `ExchangedLit` ranges (the mailbox / AbsorbFilter)
/// and `pdr::StateLit` cubes (the FrameDb's may-clause bookkeeping) both key
/// through it, so an encoding change can never desynchronize the two sides.
/// `LitRange` is any range of structs exposing `state`, `bit` and `negated`.
template <typename LitRange>
std::string exchange_key(const LitRange& lits) {
  std::string key;
  for (const auto& lit : lits) {
    key += '|';
    key += std::to_string(lit.state);
    key += '.';
    key += std::to_string(lit.bit);
    key += lit.negated ? '-' : '+';
  }
  return key;
}

inline std::string exchange_key(const ExchangedClause& clause) {
  return exchange_key(clause.lits);
}

/// Consumer-side duplicate filter. The mailbox backlog may carry the same
/// clause many times — a time-sliced PDR member re-proves and re-publishes
/// its F_∞ clauses at every budget, and several members can publish the
/// same fact independently — so a consumer that asserted every fetched
/// clause would do quadratic re-assert work across slices. `admit` returns
/// true exactly once per distinct manager-neutral form; consumers skip (and
/// do not count as absorbed) everything else. One filter lives per engine
/// *run*: a fresh run has fresh solvers and genuinely needs each distinct
/// clause once more.
class AbsorbFilter {
 public:
  /// True iff `clause` has not been admitted by this filter before.
  bool admit(const ExchangedClause& clause) {
    return seen_.insert(exchange_key(clause)).second;
  }

 private:
  std::unordered_set<std::string> seen_;
};

/// Thread-safe multi-producer multi-consumer clause board, one slot per
/// portfolio member. Publishing appends; fetching returns every clause
/// published by *other* members since the caller's cursor. Per-slot
/// published/absorbed counters feed `EngineBreakdown`.
class LemmaMailbox {
 public:
  explicit LemmaMailbox(std::size_t member_count);

  std::size_t member_count() const noexcept { return members_; }

  /// Append `clause` on behalf of `member` and bump its published counter.
  void publish(std::size_t member, ExchangedClause clause);

  /// Append a whole batch under one lock. Use for sets whose members are
  /// only *jointly* inductive (PDR's F_∞ fixpoint survivors): fetch() also
  /// holds the lock, so no consumer can ever observe half a batch — which
  /// is what keeps an absorbing PDR run's exported certificate inductive
  /// (docs/lemmas.md, "Absorbed proven clauses").
  void publish_batch(std::size_t member, std::vector<ExchangedClause> clauses);

  /// Everything published by members other than `member` since `*cursor`;
  /// advances `*cursor` past the end. The cursor is caller-owned state (a
  /// fresh consumer passes 0 and receives the full backlog).
  std::vector<ExchangedClause> fetch(std::size_t member, std::size_t* cursor) const;

  /// Record that `member` asserted `count` fetched clauses into its solvers.
  void note_absorbed(std::size_t member, std::size_t count);

  std::size_t published_by(std::size_t member) const;
  std::size_t absorbed_by(std::size_t member) const;
  /// Total clauses on the board (all publishers).
  std::size_t size() const;

#if defined(GENFV_TSA_NEGATIVE_TEST)
  /// Negative-compile probe (scripts/check_thread_safety.sh): reads a
  /// guarded field without taking mu_. MUST fail to compile under
  /// -Werror=thread-safety — if it ever compiles, the annotation coverage
  /// has rotted and the whole clang leg is vacuous. Never defined in real
  /// builds.
  std::size_t tsa_probe_unguarded() const { return entries_.size(); }
#endif

 private:
  struct Entry {
    ExchangedClause clause;
    std::size_t publisher;
  };
  struct Counters {
    std::size_t published = 0;
    std::size_t absorbed = 0;
  };

  const std::size_t members_;
  mutable util::Mutex mu_{"mc.mailbox"};
  std::vector<Entry> entries_ GENFV_GUARDED_BY(mu_);
  std::vector<Counters> counters_ GENFV_GUARDED_BY(mu_);
};

}  // namespace genfv::mc
