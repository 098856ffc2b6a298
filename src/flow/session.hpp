#pragma once

/// \file session.hpp
/// A verification task bundles everything the paper's flows consume: the
/// RTL source, the natural-language specification, the elaborated
/// transition system and the compiled target properties.

#include <string>
#include <vector>

#include "ir/transition_system.hpp"

namespace genfv::flow {

struct TargetSpec {
  std::string name;
  std::string sva;
};

struct VerificationTask {
  std::string name;
  std::string spec;  ///< natural-language specification (prompt input)
  std::string rtl;   ///< SystemVerilog source (prompt input)
  ir::TransitionSystem ts;
  /// Indices of target properties inside ts.properties().
  std::vector<std::size_t> target_indices;

  /// Elaborate `rtl` and compile `targets` into a ready-to-run task.
  static VerificationTask from_rtl(const std::string& name, const std::string& spec,
                                   const std::string& rtl,
                                   const std::vector<TargetSpec>& targets);

  /// Load a design file, dispatching on extension: `.aag`/`.aig` go through
  /// the AIGER frontend, `.btor`/`.btor2` through the BTOR2 frontend, and
  /// anything else is elaborated as HDL source. Frontend-sourced targets are
  /// the file's embedded Target-role properties (`bad_N` et al.); HDL files
  /// carry no targets until the caller compiles some.
  static VerificationTask from_file(const std::string& path);

  /// Target property expressions, in declaration order.
  std::vector<ir::NodeRef> target_exprs() const;
  /// SVA source of every target (prompt rendering).
  std::vector<std::string> target_svas() const;
};

}  // namespace genfv::flow
