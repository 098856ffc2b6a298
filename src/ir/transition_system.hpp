#pragma once

/// \file transition_system.hpp
/// The finite-state transition system that everything verifies against.
///
/// A system has primary inputs (fresh nondeterministic values each cycle),
/// state variables (registers, each with an optional init expression and a
/// mandatory next-state expression), named internal signals (elaborated
/// wires, referencable from SVA), environment constraints (assumed every
/// cycle) and a property list. This mirrors what a formal tool builds from
/// RTL after elaboration.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/node_manager.hpp"

namespace genfv::ir {

/// Register: variable node plus init/next expressions.
struct StateVar {
  NodeRef var = nullptr;
  NodeRef init = nullptr;  ///< nullptr = unconstrained initial value
  NodeRef next = nullptr;  ///< must be set before any engine runs
};

/// How a property participates in a proof.
enum class PropertyRole {
  Target,     ///< property the user wants proven
  Candidate,  ///< generated helper, not yet proven
  Lemma,      ///< proven helper; may be assumed
};

struct Property {
  std::string name;
  NodeRef expr = nullptr;  ///< width-1: must hold in every reachable state
  PropertyRole role = PropertyRole::Target;
  std::string source_text;  ///< SVA text it came from (for reports/prompts)
};

class TransitionSystem {
 public:
  /// Creates a system with its own node manager.
  TransitionSystem();
  /// Creates a system sharing an existing manager (e.g. when several systems
  /// are built from one elaboration session).
  explicit TransitionSystem(std::shared_ptr<NodeManager> nm);

  NodeManager& nm() noexcept { return *nm_; }
  const NodeManager& nm() const noexcept { return *nm_; }
  std::shared_ptr<NodeManager> nm_ptr() const noexcept { return nm_; }

  /// Module name (for reports); optional.
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction ---------------------------------------------------------
  NodeRef add_input(const std::string& name, unsigned width);
  NodeRef add_state(const std::string& name, unsigned width);
  void set_init(NodeRef state, NodeRef init);
  void set_next(NodeRef state, NodeRef next);
  /// Register a named internal signal (wire) so SVA and waveforms can use it.
  void add_signal(const std::string& name, NodeRef expr);
  /// Environment assumption, required to hold in every cycle.
  void add_constraint(NodeRef expr);

  std::size_t add_property(Property p);
  Property& property(std::size_t i) { return properties_.at(i); }
  const Property& property(std::size_t i) const { return properties_.at(i); }
  std::size_t num_properties() const noexcept { return properties_.size(); }

  // --- queries ----------------------------------------------------------------
  const std::vector<NodeRef>& inputs() const noexcept { return inputs_; }
  const std::vector<StateVar>& states() const noexcept { return states_; }
  const std::vector<NodeRef>& constraints() const noexcept { return constraints_; }
  const std::vector<Property>& properties() const noexcept { return properties_; }
  const std::vector<std::pair<std::string, NodeRef>>& signals() const noexcept {
    return signals_;
  }

  /// Find an input/state/signal by name; nullptr when absent.
  NodeRef lookup(const std::string& name) const;
  /// The StateVar record for a state node; nullptr when not a state here.
  const StateVar* state_of(NodeRef var) const;

  /// Throws UsageError unless every state has a next function, widths are
  /// consistent, and properties/constraints are width-1.
  void validate() const;

 private:
  std::shared_ptr<NodeManager> nm_;
  std::string name_;
  std::vector<NodeRef> inputs_;
  std::vector<StateVar> states_;
  std::vector<NodeRef> constraints_;
  std::vector<Property> properties_;
  std::vector<std::pair<std::string, NodeRef>> signals_;
  std::unordered_map<std::string, NodeRef> by_name_;
  std::unordered_map<NodeRef, std::size_t> state_index_;
};

}  // namespace genfv::ir
