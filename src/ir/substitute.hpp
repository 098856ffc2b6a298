#pragma once

/// \file substitute.hpp
/// Bottom-up leaf substitution over the hash-consed DAG, with memoization.
/// Used for structural-equivalence checks in invariant mining (rename state
/// a to state b and compare pointers) and for expression rewriting.

#include <unordered_map>

#include "ir/node_manager.hpp"

namespace genfv::ir {

using Substitution = std::unordered_map<NodeRef, NodeRef>;

/// Rebuild `root` with every occurrence of a key leaf replaced by its image.
/// Replacement images must have the same width as their keys.
NodeRef substitute(NodeRef root, const Substitution& subst, NodeManager& nm);

/// Rebuild `original`'s operator in `nm` over the (already translated)
/// `children`, through the public builders so folding and hash-consing
/// reapply. `original` must be a non-leaf; this is the single op-dispatch
/// table for rebuilding a node.
NodeRef rebuild_node(NodeManager& nm, NodeRef original,
                     const std::vector<NodeRef>& children);

/// Collect the set of Input/State leaves reachable from `root`.
std::vector<NodeRef> collect_leaves(NodeRef root);

/// DAG node count (distinct nodes reachable from root).
std::size_t dag_size(NodeRef root);

}  // namespace genfv::ir
