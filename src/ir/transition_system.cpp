#include "ir/transition_system.hpp"

#include "util/status.hpp"

namespace genfv::ir {

TransitionSystem::TransitionSystem() : nm_(std::make_shared<NodeManager>()) {}

TransitionSystem::TransitionSystem(std::shared_ptr<NodeManager> nm) : nm_(std::move(nm)) {
  GENFV_ASSERT(nm_ != nullptr, "TransitionSystem requires a node manager");
}

NodeRef TransitionSystem::add_input(const std::string& name, unsigned width) {
  if (by_name_.contains(name)) {
    throw UsageError("duplicate signal name: " + name);
  }
  const NodeRef n = nm_->mk_input(name, width);
  inputs_.push_back(n);
  by_name_.emplace(name, n);
  return n;
}

NodeRef TransitionSystem::add_state(const std::string& name, unsigned width) {
  if (by_name_.contains(name)) {
    throw UsageError("duplicate signal name: " + name);
  }
  const NodeRef n = nm_->mk_state(name, width);
  state_index_.emplace(n, states_.size());
  states_.push_back(StateVar{n, nullptr, nullptr});
  by_name_.emplace(name, n);
  return n;
}

void TransitionSystem::set_init(NodeRef state, NodeRef init) {
  const auto it = state_index_.find(state);
  if (it == state_index_.end()) throw UsageError("set_init: not a state of this system");
  if (init->width() != state->width()) {
    throw SortError("set_init: width mismatch for " + state->name());
  }
  states_[it->second].init = init;
}

void TransitionSystem::set_next(NodeRef state, NodeRef next) {
  const auto it = state_index_.find(state);
  if (it == state_index_.end()) throw UsageError("set_next: not a state of this system");
  if (next->width() != state->width()) {
    throw SortError("set_next: width mismatch for " + state->name());
  }
  states_[it->second].next = next;
}

void TransitionSystem::add_signal(const std::string& name, NodeRef expr) {
  if (by_name_.contains(name)) {
    throw UsageError("duplicate signal name: " + name);
  }
  signals_.emplace_back(name, expr);
  by_name_.emplace(name, expr);
}

void TransitionSystem::add_constraint(NodeRef expr) {
  if (expr->width() != 1) throw SortError("constraint must have width 1");
  constraints_.push_back(expr);
}

std::size_t TransitionSystem::add_property(Property p) {
  if (p.expr == nullptr || p.expr->width() != 1) {
    throw SortError("property '" + p.name + "' must be a width-1 expression");
  }
  properties_.push_back(std::move(p));
  return properties_.size() - 1;
}

NodeRef TransitionSystem::lookup(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const StateVar* TransitionSystem::state_of(NodeRef var) const {
  const auto it = state_index_.find(var);
  return it == state_index_.end() ? nullptr : &states_[it->second];
}

void TransitionSystem::validate() const {
  for (const auto& s : states_) {
    if (s.next == nullptr) {
      throw UsageError("state '" + s.var->name() + "' has no next-state function");
    }
  }
}

}  // namespace genfv::ir
