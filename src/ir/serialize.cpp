#include "ir/serialize.hpp"

#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace genfv::ir {

namespace {

/// Collect every node reachable from the system's roots, children before
/// parents. Inputs and states come first, in declaration order, so the dump
/// lists them as the system declares them.
std::vector<NodeRef> collect_all_nodes(const TransitionSystem& ts) {
  std::vector<NodeRef> ordered;
  std::unordered_map<NodeRef, char> mark;  // present = done
  for (const NodeRef in : ts.inputs()) {
    ordered.push_back(in);
    mark.emplace(in, 1);
  }
  for (const auto& s : ts.states()) {
    ordered.push_back(s.var);
    mark.emplace(s.var, 1);
  }

  std::vector<NodeRef> roots;
  for (const auto& s : ts.states()) {
    if (s.init != nullptr) roots.push_back(s.init);
    if (s.next != nullptr) roots.push_back(s.next);
  }
  for (const NodeRef c : ts.constraints()) roots.push_back(c);
  for (const auto& p : ts.properties()) roots.push_back(p.expr);
  for (const auto& [name, expr] : ts.signals()) roots.push_back(expr);

  std::vector<std::pair<NodeRef, bool>> stack;
  for (const NodeRef r : roots) stack.push_back({r, false});
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (mark.contains(n) && !expanded) continue;
    if (expanded) {
      if (!mark.contains(n)) {
        mark.emplace(n, 1);
        ordered.push_back(n);
      }
      continue;
    }
    stack.push_back({n, true});
    for (const NodeRef c : n->children()) {
      if (!mark.contains(c)) stack.push_back({c, false});
    }
  }
  return ordered;
}

const char* role_token(PropertyRole role) {
  switch (role) {
    case PropertyRole::Target: return "target";
    case PropertyRole::Candidate: return "candidate";
    case PropertyRole::Lemma: return "lemma";
  }
  return "target";
}

}  // namespace

std::string serialize(const TransitionSystem& ts) {
  std::ostringstream out;
  out << "genfv-ts 1\n";
  if (!ts.name().empty()) out << "name " << ts.name() << '\n';

  const std::vector<NodeRef> nodes = collect_all_nodes(ts);
  std::unordered_map<NodeRef, std::size_t> id;
  std::size_t next_id = 1;

  for (const NodeRef n : nodes) {
    id[n] = next_id;
    out << next_id << ' ';
    switch (n->op()) {
      case Op::Input:
        out << "input " << n->width() << ' ' << n->name();
        break;
      case Op::State:
        out << "state " << n->width() << ' ' << n->name();
        break;
      case Op::Const: {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%llx",
                      static_cast<unsigned long long>(n->value()));
        out << "const " << n->width() << ' ' << buf;
        break;
      }
      default: {
        out << op_name(n->op()) << ' ' << n->width();
        for (const NodeRef c : n->children()) out << ' ' << id.at(c);
        if (n->op() == Op::Extract) out << ' ' << n->hi() << ' ' << n->lo();
        break;
      }
    }
    out << '\n';
    ++next_id;
  }

  for (const auto& s : ts.states()) {
    if (s.init != nullptr) out << "init " << id.at(s.var) << ' ' << id.at(s.init) << '\n';
    if (s.next != nullptr) out << "next " << id.at(s.var) << ' ' << id.at(s.next) << '\n';
  }
  for (const NodeRef c : ts.constraints()) out << "constraint " << id.at(c) << '\n';
  for (const auto& p : ts.properties()) {
    out << "property " << role_token(p.role) << ' '
        << (p.name.empty() ? std::string("-") : p.name) << ' ' << id.at(p.expr);
    if (!p.source_text.empty()) {
      // Source text may contain spaces; it is everything after the '#'.
      std::string one_line = p.source_text;
      for (char& ch : one_line) {
        if (ch == '\n') ch = ' ';
      }
      out << " # " << one_line;
    }
    out << '\n';
  }
  for (const auto& [name, expr] : ts.signals()) {
    out << "signal " << name << ' ' << id.at(expr) << '\n';
  }
  return out.str();
}

}  // namespace genfv::ir
