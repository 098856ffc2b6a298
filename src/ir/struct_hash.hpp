#pragma once

/// \file struct_hash.hpp
/// Structural hashing and diffing of transition systems — the proof-cache
/// key (docs/serve.md).
///
/// The hash is *semantic-structural*: it depends only on the shape of the
/// node DAG and the declaration indices of nominal leaves, never on node
/// ids, creation order, leaf names, or which `NodeManager` owns the nodes.
/// Consequences, all pinned by tests:
///  * alpha-equivalent systems (same structure, different signal names)
///    collide — renaming a register cannot invalidate a cached proof;
///  * a semantic edit (different constant, different operator, different
///    next-state function) changes the hash;
///  * the hash is stable across NodeManagers: two elaborations of one
///    design, in one process or in two, hash alike.
///
/// Commutative operators (`ir::is_commutative`) combine their children
/// order-insensitively, so the id-ordered operand normalization inside
/// `NodeManager` (which depends on creation order) cannot leak into the key.
///
/// `StructDiff` compares two systems — or a system against the stored
/// signature vector of a cache entry — state by state in declaration order.
/// Clause reuse is keyed on state declaration indices (mc/pdr/cube.hpp), so
/// declaration order is exactly the correspondence that decides which cached
/// clauses still name the same bits.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/transition_system.hpp"

namespace genfv::ir {

/// Per-state identity: declaration width plus the structural hash of the
/// init/next expressions. Two states with equal signatures at the same
/// declaration index transition identically (up to alpha-equivalence).
struct StateSig {
  unsigned width = 0;
  std::uint64_t sig = 0;

  friend bool operator==(const StateSig&, const StateSig&) = default;
};

/// Memoizing structural hasher over one system. Cheap to construct; node
/// hashes are computed on demand and cached, so hashing a system and then
/// several properties over it shares the DAG walk.
class StructHasher {
 public:
  explicit StructHasher(const TransitionSystem& ts);

  /// Structural hash of one expression over the system. Nominal leaves hash
  /// by (role, declaration index, width); a leaf that is not declared in the
  /// system (e.g. an orphaned auxiliary variable) falls back to hashing its
  /// name, tagged so it can never collide with a declared leaf.
  std::uint64_t node_hash(NodeRef node);

  /// Hash of the whole system: inputs + states (declaration order), the
  /// constraint set (order-insensitive). Properties and named signals do not
  /// participate — the proof-cache key adds the property separately, and
  /// signals are observational only.
  std::uint64_t system_hash();

  /// `node_hash(property)` mixed with a domain-separation tag, so a property
  /// hash can never be confused with a system hash.
  std::uint64_t property_hash(NodeRef property);

  /// Signature of `ts.states()[i]`.
  StateSig state_signature(std::size_t i);
  /// All state signatures, declaration order.
  std::vector<StateSig> state_signatures();

 private:
  const TransitionSystem& ts_;
  std::unordered_map<NodeRef, std::uint64_t> memo_;
  std::unordered_map<NodeRef, std::uint64_t> leaf_hash_;
};

/// One-shot system hash (constructs a StructHasher internally).
std::uint64_t struct_hash(const TransitionSystem& ts);

/// State-by-state comparison of two systems (or one system against a stored
/// signature vector), by declaration index.
struct StructDiff {
  std::size_t states_a = 0;
  std::size_t states_b = 0;
  /// Indices present in both with equal width (clauses over these states
  /// still name existing bits).
  std::size_t compatible_states = 0;
  /// Compatible states whose full signature (width + init + next) matches.
  std::size_t matched_states = 0;
  bool inputs_equal = false;
  bool constraints_equal = false;

  /// Fraction of states that survived the edit unchanged, over the larger
  /// system: 1.0 = identical state space, 0.0 = nothing in common. The
  /// proof-cache near-miss threshold gates on this.
  double similarity() const noexcept {
    const std::size_t total = states_a > states_b ? states_a : states_b;
    if (total == 0) return inputs_equal && constraints_equal ? 1.0 : 0.0;
    return static_cast<double>(matched_states) / static_cast<double>(total);
  }
};

StructDiff struct_diff(const TransitionSystem& a, const TransitionSystem& b);

/// Diff against a stored signature vector (the proof-cache path: the old
/// system is gone, only its signatures were persisted). `inputs_equal` /
/// `constraints_equal` are reported as matching `b`'s own — the caller
/// compares the full system hash separately for exactness.
StructDiff struct_diff(const std::vector<StateSig>& a, const TransitionSystem& b);

}  // namespace genfv::ir
