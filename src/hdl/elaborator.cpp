#include "hdl/elaborator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "hdl/parser.hpp"
#include "ir/substitute.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace genfv::hdl {

using ir::NodeRef;

// --- ExprBuilder ---------------------------------------------------------------

ExprBuilder::ExprBuilder(ir::NodeManager& nm, Resolver resolver)
    : nm_(nm), resolver_(std::move(resolver)), on_call_([](const Expr& call, ExprBuilder&) -> NodeRef {
        throw ParseError(std::to_string(call.line) + ":" + std::to_string(call.col),
                         "unsupported system call '" + call.text + "' in this context");
      }) {}

ExprBuilder::ExprBuilder(ir::NodeManager& nm, Resolver resolver, CallHandler on_call)
    : nm_(nm), resolver_(std::move(resolver)), on_call_(std::move(on_call)) {}

std::pair<NodeRef, NodeRef> ExprBuilder::build_balanced(const Expr& lhs, const Expr& rhs) {
  // Unsized literals adapt to the sibling operand's width when they fit,
  // which keeps circuits at the natural design width instead of 32 bits.
  const bool lhs_unsized_num = lhs.kind == Expr::Kind::Number && !lhs.sized;
  const bool rhs_unsized_num = rhs.kind == Expr::Kind::Number && !rhs.sized;
  if (lhs_unsized_num && !rhs_unsized_num) {
    const NodeRef r = build(rhs);
    const unsigned w = r->width();
    if (lhs.value <= ir::width_mask(w)) return {nm_.mk_const(lhs.value, w), r};
    return {nm_.mk_const(lhs.value, lhs.width), nm_.mk_zext(r, lhs.width)};
  }
  if (rhs_unsized_num && !lhs_unsized_num) {
    const NodeRef l = build(lhs);
    const unsigned w = l->width();
    if (rhs.value <= ir::width_mask(w)) return {l, nm_.mk_const(rhs.value, w)};
    return {nm_.mk_zext(l, rhs.width), nm_.mk_const(rhs.value, rhs.width)};
  }
  NodeRef l = build(lhs);
  NodeRef r = build(rhs);
  const unsigned w = std::max(l->width(), r->width());
  return {nm_.mk_zext(l, w), nm_.mk_zext(r, w)};
}

ir::NodeRef ExprBuilder::build_binary(const Expr& e) {
  const std::string& op = e.text;
  const Expr& lhs_ast = *e.args[0];
  const Expr& rhs_ast = *e.args[1];

  if (op == "&&") return nm_.mk_and(build_bool(lhs_ast), build_bool(rhs_ast));
  if (op == "||") return nm_.mk_or(build_bool(lhs_ast), build_bool(rhs_ast));

  if (op == "<<" || op == "<<<" || op == ">>" || op == ">>>") {
    const NodeRef value = build(lhs_ast);
    const NodeRef amount = build(rhs_ast);
    if (op == ">>") return nm_.mk_lshr(value, amount);
    if (op == ">>>") return nm_.mk_ashr(value, amount);
    return nm_.mk_shl(value, amount);
  }

  auto [l, r] = build_balanced(lhs_ast, rhs_ast);
  if (op == "&") return nm_.mk_and(l, r);
  if (op == "|") return nm_.mk_or(l, r);
  if (op == "^") return nm_.mk_xor(l, r);
  if (op == "~^") return nm_.mk_xnor(l, r);
  if (op == "+") return nm_.mk_add(l, r);
  if (op == "-") return nm_.mk_sub(l, r);
  if (op == "*") return nm_.mk_mul(l, r);
  if (op == "/") return nm_.mk_udiv(l, r);
  if (op == "%") return nm_.mk_urem(l, r);
  if (op == "==") return nm_.mk_eq(l, r);
  if (op == "!=") return nm_.mk_ne(l, r);
  if (op == "<") return nm_.mk_ult(l, r);
  if (op == "<=") return nm_.mk_ule(l, r);
  if (op == ">") return nm_.mk_ugt(l, r);
  if (op == ">=") return nm_.mk_uge(l, r);

  if (op == "|->" || op == "|=>") {
    throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                     "implication operator '" + op + "' is only valid at property level");
  }
  throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                   "unsupported binary operator '" + op + "'");
}

ir::NodeRef ExprBuilder::build_unary(const Expr& e) {
  const std::string& op = e.text;
  const NodeRef a = build(*e.args[0]);
  if (op == "!") return nm_.mk_not(nm_.mk_bool(a));
  if (op == "~") return nm_.mk_not(a);
  if (op == "-") return nm_.mk_neg(a);
  if (op == "+") return a;
  if (op == "&") return nm_.mk_redand(a);
  if (op == "|") return nm_.mk_redor(a);
  if (op == "^") return nm_.mk_redxor(a);
  if (op == "~&") return nm_.mk_not(nm_.mk_redand(a));
  if (op == "~|") return nm_.mk_not(nm_.mk_redor(a));
  if (op == "~^") return nm_.mk_not(nm_.mk_redxor(a));
  throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                   "unsupported unary operator '" + op + "'");
}

ir::NodeRef ExprBuilder::build(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::Number:
      return nm_.mk_const(e.value, e.width);
    case Expr::Kind::Id:
      return resolver_(e.text, e);
    case Expr::Kind::Unary:
      return build_unary(e);
    case Expr::Kind::Binary:
      return build_binary(e);
    case Expr::Kind::Ternary:
      {
        const NodeRef cond = build_bool(*e.args[0]);
        auto [t, el] = build_balanced(*e.args[1], *e.args[2]);
        return nm_.mk_ite(cond, t, el);
      }
    case Expr::Kind::Concat: {
      NodeRef acc = build(*e.args[0]);
      for (std::size_t i = 1; i < e.args.size(); ++i) {
        acc = nm_.mk_concat(acc, build(*e.args[i]));
      }
      return acc;
    }
    case Expr::Kind::Repl: {
      if (e.value == 0) {
        throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                         "replication count must be positive");
      }
      const NodeRef item = build(*e.args[0]);
      NodeRef acc = item;
      for (std::uint64_t i = 1; i < e.value; ++i) acc = nm_.mk_concat(acc, item);
      return acc;
    }
    case Expr::Kind::Index: {
      const NodeRef base = build(*e.args[0]);
      const Expr& idx = *e.args[1];
      if (idx.kind == Expr::Kind::Number) {
        if (idx.value >= base->width()) {
          throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                           "bit index out of range");
        }
        return nm_.mk_bit(base, static_cast<unsigned>(idx.value));
      }
      // Dynamic select: (base >> idx)[0].
      const NodeRef amount = build(idx);
      return nm_.mk_bit(nm_.mk_lshr(base, nm_.mk_resize(amount, base->width())), 0);
    }
    case Expr::Kind::Range: {
      const NodeRef base = build(*e.args[0]);
      if (e.msb >= base->width() || e.msb < e.lsb) {
        throw ParseError(std::to_string(e.line) + ":" + std::to_string(e.col),
                         "part-select out of range");
      }
      return nm_.mk_extract(base, e.msb, e.lsb);
    }
    case Expr::Kind::Call:
      return on_call_(e, *this);
  }
  throw ParseError("?", "unreachable expression kind");
}

ir::NodeRef ExprBuilder::build_bool(const Expr& e) { return nm_.mk_bool(build(e)); }

ir::NodeRef ExprBuilder::build_resized(const Expr& e, unsigned width) {
  // Unsized literals take the target width directly.
  if (e.kind == Expr::Kind::Number && !e.sized) return nm_.mk_const(e.value, width);
  return nm_.mk_resize(build(e), width);
}

void collect_names(const Expr& e, std::vector<std::string>& out) {
  if (e.kind == Expr::Kind::Id) out.push_back(e.text);
  for (const auto& arg : e.args) collect_names(*arg, out);
}

// --- elaboration ------------------------------------------------------------------

namespace {

[[noreturn]] void elab_error(int line, const std::string& msg) {
  throw ParseError("line " + std::to_string(line), msg);
}

/// Names commonly used for reset inputs (sync-reset detection heuristic).
bool looks_like_reset_name(const std::string& name) {
  const std::string lower = util::to_lower(name);
  return lower == "rst" || lower == "reset" || lower == "rst_n" || lower == "resetn" ||
         lower == "reset_n" || lower == "rst_ni" || lower == "arst" || lower == "arst_n" ||
         lower == "nrst";
}

bool name_is_active_low(const std::string& name) {
  const std::string lower = util::to_lower(name);
  return lower == "rst_n" || lower == "resetn" || lower == "reset_n" ||
         lower == "rst_ni" || lower == "arst_n" || lower == "nrst";
}

/// Symbolic machine state during statement execution.
struct SymState {
  /// Current-cycle view of every resolvable signal.
  std::map<std::string, NodeRef> env;
  /// Pending nonblocking assignments (register -> next value).
  std::map<std::string, NodeRef> nba;
};

class Elaborator {
 public:
  explicit Elaborator(const Module& m) : module_(m) {}

  ElaborationResult run();

 private:
  struct SigInfo {
    SignalDecl decl;
    bool is_register = false;
    bool is_comb_target = false;
    bool is_input = false;
  };

  void collect_signals();
  void scan_processes();
  void build_leaves();
  void build_comb();
  void build_sequential();
  void derive_inits();

  NodeRef resolve(const std::string& name, const Expr& at, const SymState& st) const;
  NodeRef build_expr(const Expr& e, const SymState& st);
  NodeRef build_expr_resized(const Expr& e, unsigned width, const SymState& st);

  void exec(const Stmt& stmt, SymState& st, bool sequential);
  void merge(SymState& into, const SymState& then_st, const SymState& else_st, NodeRef cond,
             int line);
  /// Apply an assignment to an lvalue expression, handling bit/part selects.
  void assign_lvalue(const Expr& lhs, NodeRef value_builder_rhs, SymState& st,
                     bool nonblocking, const Expr& rhs_ast, bool resize_to_target);

  std::string assigned_base_name(const Expr& lhs) const;

  const Module& module_;

  ir::TransitionSystem ts_;
  std::map<std::string, SigInfo> signals_;
  std::map<std::string, std::uint64_t> params_;
  std::map<std::string, NodeRef> leaves_;  // inputs + states by name
  std::map<std::string, NodeRef> wires_;   // elaborated comb signals
  std::map<std::string, NodeRef> next_;    // register -> next expr

  std::string clock_;
  std::string reset_;
  bool reset_active_low_ = false;
};

std::string Elaborator::assigned_base_name(const Expr& lhs) const {
  const Expr* e = &lhs;
  while (e->kind == Expr::Kind::Index || e->kind == Expr::Kind::Range) {
    e = e->args[0].get();
  }
  if (e->kind != Expr::Kind::Id) {
    elab_error(lhs.line, "unsupported lvalue shape");
  }
  return e->text;
}

void Elaborator::collect_signals() {
  ts_.set_name(module_.name);

  // Parameters first (they may appear in expressions).
  for (const auto& p : module_.params) {
    // Constant-evaluate using previously seen params only.
    ExprBuilder builder(ts_.nm(), [this, &p](const std::string& name, const Expr& at) -> NodeRef {
      const auto it = params_.find(name);
      if (it == params_.end()) {
        throw ParseError(std::to_string(at.line),
                         "parameter '" + p.name + "' references unknown name '" + name + "'");
      }
      return ts_.nm().mk_const(it->second, 64);
    });
    const NodeRef v = builder.build(*p.value);
    if (!v->is_const()) elab_error(0, "parameter '" + p.name + "' is not constant");
    params_[p.name] = v->value();
  }

  for (const auto& decl : module_.signals) {
    if (signals_.contains(decl.name)) {
      elab_error(decl.line, "duplicate declaration of '" + decl.name + "'");
    }
    if (decl.dir == PortDir::Inout) {
      elab_error(decl.line, "inout ports are not supported");
    }
    if (decl.width < 1 || decl.width > 64) {
      // The IR's bit-vector discipline (and every downstream 64-bit value
      // path: simulation assignments, trace frames, PDR state packing) caps
      // signals at 64 bits. Reject here with the declaration's location
      // instead of letting NodeManager throw a context-free SortError.
      elab_error(decl.line, "signal '" + decl.name + "' is " +
                                std::to_string(decl.width) +
                                " bits wide; supported widths are 1..64");
    }
    SigInfo info;
    info.decl.name = decl.name;
    info.decl.dir = decl.dir;
    info.decl.net = decl.net;
    info.decl.width = decl.width;
    info.decl.line = decl.line;
    if (decl.init != nullptr) {
      // Clone not needed: we only keep a pointer into the module AST, which
      // outlives elaboration.
    }
    info.is_input = (decl.dir == PortDir::Input);
    signals_.emplace(decl.name, std::move(info));
  }
}

void Elaborator::scan_processes() {
  // Clock/reset discovery + register classification.
  for (const auto& blk : module_.always_blocks) {
    if (blk.combinational) continue;
    if (clock_.empty()) {
      clock_ = blk.clock;
    } else if (clock_ != blk.clock) {
      elab_error(blk.line, "multiple clocks are not supported ('" + clock_ + "' vs '" +
                               blk.clock + "')");
    }
    if (!blk.reset.empty()) {
      if (!reset_.empty() && reset_ != blk.reset) {
        elab_error(blk.line, "conflicting async resets");
      }
      reset_ = blk.reset;
      reset_active_low_ = blk.reset_active_low;
    }
  }

  // Sync-reset heuristic: top-level `if (rst) ...` on a reset-named input.
  if (reset_.empty()) {
    for (const auto& blk : module_.always_blocks) {
      if (blk.combinational) continue;
      const Stmt* body = blk.body.get();
      while (body != nullptr && body->kind == Stmt::Kind::Block && body->body.size() == 1) {
        body = body->body[0].get();
      }
      if (body == nullptr || body->kind != Stmt::Kind::If || body->cond == nullptr) continue;
      const Expr* cond = body->cond.get();
      bool negated = false;
      while (cond->kind == Expr::Kind::Unary && (cond->text == "!" || cond->text == "~")) {
        negated = !negated;
        cond = cond->args[0].get();
      }
      if (cond->kind == Expr::Kind::Id && looks_like_reset_name(cond->text)) {
        const auto it = signals_.find(cond->text);
        if (it != signals_.end() && it->second.is_input) {
          reset_ = cond->text;
          reset_active_low_ = negated;
          break;
        }
      }
    }
  }
  if (reset_.empty() == false && reset_active_low_ == false) {
    // Name-based fallback for active-low detection when the sensitivity list
    // gave us posedge (unusual for _n names but possible in the subset).
    reset_active_low_ = name_is_active_low(reset_);
  }

  // Classify assignment targets.
  std::function<void(const Stmt&, bool)> walk = [&](const Stmt& s, bool sequential) {
    switch (s.kind) {
      case Stmt::Kind::Block:
        for (const auto& sub : s.body) walk(*sub, sequential);
        break;
      case Stmt::Kind::If:
        walk(*s.then_stmt, sequential);
        if (s.else_stmt) walk(*s.else_stmt, sequential);
        break;
      case Stmt::Kind::Case:
        for (const auto& item : s.items) walk(*item.body, sequential);
        break;
      case Stmt::Kind::Nonblocking:
      case Stmt::Kind::Blocking:
      case Stmt::Kind::IncDec: {
        const std::string name = assigned_base_name(*s.lhs);
        const auto it = signals_.find(name);
        if (it == signals_.end()) elab_error(s.line, "assignment to undeclared '" + name + "'");
        if (sequential) {
          it->second.is_register = true;
        } else {
          it->second.is_comb_target = true;
        }
        break;
      }
      case Stmt::Kind::Empty:
        break;
    }
  };
  for (const auto& blk : module_.always_blocks) {
    walk(*blk.body, /*sequential=*/!blk.combinational);
  }
  for (const auto& a : module_.assigns) {
    const std::string name = assigned_base_name(*a.lhs);
    const auto it = signals_.find(name);
    if (it == signals_.end()) elab_error(a.line, "assignment to undeclared '" + name + "'");
    it->second.is_comb_target = true;
  }

  for (auto& [name, info] : signals_) {
    if (info.is_register && info.is_comb_target) {
      elab_error(info.decl.line, "'" + name + "' driven both sequentially and combinationally");
    }
    if (info.is_register && info.is_input) {
      elab_error(info.decl.line, "input port '" + name + "' cannot be assigned");
    }
  }
}

void Elaborator::build_leaves() {
  for (const auto& decl : module_.signals) {
    const SigInfo& info = signals_.at(decl.name);
    if (decl.name == clock_) continue;  // clock is implicit in cycle semantics
    if (info.is_input) {
      leaves_[decl.name] = ts_.add_input(decl.name, decl.width);
    } else if (info.is_register) {
      leaves_[decl.name] = ts_.add_state(decl.name, decl.width);
    }
    // Comb targets become signals after their expressions are built.
  }
}

NodeRef Elaborator::resolve(const std::string& name, const Expr& at, const SymState& st) const {
  if (const auto it = st.env.find(name); it != st.env.end()) return it->second;
  if (const auto it = params_.find(name); it != params_.end()) {
    // Parameters materialize as 32-bit unsized-style constants.
    return ts_.nm_ptr()->mk_const(it->second, 32);
  }
  if (name == clock_) {
    throw ParseError(std::to_string(at.line),
                     "the clock '" + name + "' cannot be used as data");
  }
  throw ParseError(std::to_string(at.line), "use of undefined signal '" + name + "'");
}

NodeRef Elaborator::build_expr(const Expr& e, const SymState& st) {
  ExprBuilder builder(ts_.nm(), [this, &st](const std::string& name, const Expr& at) {
    return resolve(name, at, st);
  });
  return builder.build(e);
}

NodeRef Elaborator::build_expr_resized(const Expr& e, unsigned width, const SymState& st) {
  ExprBuilder builder(ts_.nm(), [this, &st](const std::string& name, const Expr& at) {
    return resolve(name, at, st);
  });
  return builder.build_resized(e, width);
}

void Elaborator::assign_lvalue(const Expr& lhs, NodeRef /*unused*/, SymState& st,
                               bool nonblocking, const Expr& rhs_ast, bool) {
  auto& nm = ts_.nm();
  const std::string base = assigned_base_name(lhs);
  const unsigned base_width = signals_.at(base).decl.width;

  // Current full value of the base signal (for read-modify-write selects).
  // Nonblocking partial assignments layer onto the *pending* next value so
  // that `q[3:0] <= lo; q[7] <= b;` composes (last write per bit wins).
  auto current_of = [&]() -> NodeRef {
    if (nonblocking) {
      if (const auto it = st.nba.find(base); it != st.nba.end()) return it->second;
    }
    const auto it = st.env.find(base);
    if (it != st.env.end()) return it->second;
    elab_error(lhs.line, "partial assignment to '" + base + "' before any full assignment");
  };

  NodeRef new_value = nullptr;
  if (lhs.kind == Expr::Kind::Id) {
    new_value = build_expr_resized(rhs_ast, base_width, st);
  } else if (lhs.kind == Expr::Kind::Range) {
    const unsigned msb = lhs.msb;
    const unsigned lsb = lhs.lsb;
    if (msb >= base_width) elab_error(lhs.line, "part-select out of range on lvalue");
    const NodeRef old = current_of();
    const NodeRef fresh = build_expr_resized(rhs_ast, msb - lsb + 1, st);
    NodeRef acc = fresh;
    if (lsb > 0) acc = nm.mk_concat(acc, nm.mk_extract(old, lsb - 1, 0));
    if (msb + 1 < base_width) acc = nm.mk_concat(nm.mk_extract(old, base_width - 1, msb + 1), acc);
    new_value = acc;
  } else if (lhs.kind == Expr::Kind::Index) {
    const Expr& idx = *lhs.args[1];
    const NodeRef old = current_of();
    const NodeRef bit = build_expr_resized(rhs_ast, 1, st);
    if (idx.kind == Expr::Kind::Number) {
      const auto i = static_cast<unsigned>(idx.value);
      if (i >= base_width) elab_error(lhs.line, "bit index out of range on lvalue");
      NodeRef acc = bit;
      if (i > 0) acc = nm.mk_concat(acc, nm.mk_extract(old, i - 1, 0));
      if (i + 1 < base_width) acc = nm.mk_concat(nm.mk_extract(old, base_width - 1, i + 1), acc);
      new_value = acc;
    } else {
      // Dynamic index: mask-and-set.
      SymState& s = st;
      const NodeRef index = build_expr(idx, s);
      const NodeRef one = nm.mk_const(1, base_width);
      const NodeRef mask = nm.mk_shl(one, nm.mk_resize(index, base_width));
      const NodeRef cleared = nm.mk_and(old, nm.mk_not(mask));
      const NodeRef set = nm.mk_shl(nm.mk_zext(bit, base_width), nm.mk_resize(index, base_width));
      new_value = nm.mk_or(cleared, set);
    }
  } else {
    elab_error(lhs.line, "unsupported lvalue");
  }

  if (nonblocking) {
    st.nba[base] = new_value;
  } else {
    st.env[base] = new_value;
  }
}

void Elaborator::merge(SymState& into, const SymState& then_st, const SymState& else_st,
                       NodeRef cond, int line) {
  auto& nm = ts_.nm();
  // `hold_ok`: nonblocking maps may fall back to the register's current value
  // (flop hold semantics); combinational envs must not (inferred latch).
  auto merge_map = [&](std::map<std::string, NodeRef>& base,
                       const std::map<std::string, NodeRef>& a,
                       const std::map<std::string, NodeRef>& b, bool hold_ok) {
    std::set<std::string> keys;
    for (const auto& [k, v] : a) keys.insert(k);
    for (const auto& [k, v] : b) keys.insert(k);
    for (const std::string& k : keys) {
      auto value_in = [&](const std::map<std::string, NodeRef>& branch) -> NodeRef {
        if (const auto it = branch.find(k); it != branch.end()) return it->second;
        if (const auto it = base.find(k); it != base.end()) return it->second;
        if (hold_ok) {
          if (const auto it = leaves_.find(k); it != leaves_.end()) return it->second;
        }
        return nullptr;
      };
      const NodeRef va = value_in(a);
      const NodeRef vb = value_in(b);
      if (va == nullptr || vb == nullptr) {
        elab_error(line, "signal '" + k + "' is not assigned on all paths (inferred latch)");
      }
      base[k] = (va == vb) ? va : nm.mk_ite(cond, va, vb);
    }
  };
  merge_map(into.env, then_st.env, else_st.env, /*hold_ok=*/false);
  merge_map(into.nba, then_st.nba, else_st.nba, /*hold_ok=*/true);
}

void Elaborator::exec(const Stmt& stmt, SymState& st, bool sequential) {
  auto& nm = ts_.nm();
  switch (stmt.kind) {
    case Stmt::Kind::Empty:
      return;
    case Stmt::Kind::Block:
      for (const auto& sub : stmt.body) exec(*sub, st, sequential);
      return;
    case Stmt::Kind::If: {
      const NodeRef cond = ts_.nm().mk_bool(build_expr(*stmt.cond, st));
      SymState then_st = st;
      SymState else_st = st;
      exec(*stmt.then_stmt, then_st, sequential);
      if (stmt.else_stmt) exec(*stmt.else_stmt, else_st, sequential);
      // Keys only present in one branch fall back to `st` (pre-branch).
      merge(st, then_st, else_st, cond, stmt.line);
      return;
    }
    case Stmt::Kind::Case: {
      const NodeRef subject = build_expr(*stmt.subject, st);
      // Build an if-else chain: first matching label wins.
      SymState acc = st;
      bool have_default = false;
      // Execute default first (if any) as the innermost fallback.
      for (const auto& item : stmt.items) {
        if (item.labels.empty()) {
          exec(*item.body, acc, sequential);
          have_default = true;
          break;
        }
      }
      if (!have_default) acc = st;  // fallthrough: hold values
      // Fold labeled items from last to first.
      for (auto it = stmt.items.rbegin(); it != stmt.items.rend(); ++it) {
        if (it->labels.empty()) continue;
        NodeRef match = nm.mk_false();
        for (const auto& label : it->labels) {
          const NodeRef label_val = build_expr_resized(*label, subject->width(), st);
          match = nm.mk_or(match, nm.mk_eq(subject, label_val));
        }
        SymState item_st = st;
        exec(*it->body, item_st, sequential);
        SymState merged = st;
        merge(merged, item_st, acc, match, stmt.line);
        acc = std::move(merged);
      }
      st = std::move(acc);
      return;
    }
    case Stmt::Kind::Nonblocking:
      if (!sequential) elab_error(stmt.line, "nonblocking assignment in combinational context");
      assign_lvalue(*stmt.lhs, nullptr, st, /*nonblocking=*/true, *stmt.rhs, true);
      return;
    case Stmt::Kind::Blocking:
      assign_lvalue(*stmt.lhs, nullptr, st, /*nonblocking=*/false, *stmt.rhs, true);
      return;
    case Stmt::Kind::IncDec: {
      // x++  ==  x <= x + 1 (sequential) / x = x + 1 (comb)
      const std::string base = assigned_base_name(*stmt.lhs);
      const auto it = st.env.find(base);
      if (it == st.env.end()) elab_error(stmt.line, "use of undefined signal '" + base + "'");
      const NodeRef cur = it->second;
      const NodeRef one = nm.mk_const(1, cur->width());
      const NodeRef next = stmt.text == "++" ? nm.mk_add(cur, one) : nm.mk_sub(cur, one);
      if (sequential) {
        st.nba[base] = next;
      } else {
        st.env[base] = next;
      }
      return;
    }
  }
}

void Elaborator::build_comb() {
  // Units: each assign / comb block. Topologically order by def/use.
  struct Unit {
    std::vector<std::string> defs;
    std::vector<std::string> uses;
    const ContAssign* assign = nullptr;
    const AlwaysBlock* block = nullptr;
    int line = 0;
  };
  std::vector<Unit> units;

  auto collect_stmt_uses = [&](const Stmt& s, std::vector<std::string>& uses) {
    std::function<void(const Stmt&)> walk = [&](const Stmt& st) {
      if (st.cond) collect_names(*st.cond, uses);
      if (st.subject) collect_names(*st.subject, uses);
      if (st.rhs) collect_names(*st.rhs, uses);
      if (st.lhs) {
        // Selects on the lvalue read the base signal.
        if (st.lhs->kind != Expr::Kind::Id) collect_names(*st.lhs, uses);
      }
      for (const auto& item : st.items) {
        for (const auto& l : item.labels) collect_names(*l, uses);
        if (item.body) walk(*item.body);
      }
      if (st.then_stmt) walk(*st.then_stmt);
      if (st.else_stmt) walk(*st.else_stmt);
      for (const auto& sub : st.body) walk(*sub);
    };
    walk(s);
  };

  for (const auto& a : module_.assigns) {
    Unit u;
    u.assign = &a;
    u.line = a.line;
    u.defs.push_back(assigned_base_name(*a.lhs));
    collect_names(*a.rhs, u.uses);
    if (a.lhs->kind != Expr::Kind::Id) collect_names(*a.lhs, u.uses);
    units.push_back(std::move(u));
  }
  for (const auto& blk : module_.always_blocks) {
    if (!blk.combinational) continue;
    Unit u;
    u.block = &blk;
    u.line = blk.line;
    std::function<void(const Stmt&)> collect_defs = [&](const Stmt& st) {
      if (st.kind == Stmt::Kind::Blocking || st.kind == Stmt::Kind::IncDec) {
        u.defs.push_back(assigned_base_name(*st.lhs));
      }
      if (st.then_stmt) collect_defs(*st.then_stmt);
      if (st.else_stmt) collect_defs(*st.else_stmt);
      for (const auto& item : st.items) collect_defs(*item.body);
      for (const auto& sub : st.body) collect_defs(*sub);
    };
    collect_defs(*blk.body);
    // One block may assign a target several times (branches): one driver.
    std::sort(u.defs.begin(), u.defs.end());
    u.defs.erase(std::unique(u.defs.begin(), u.defs.end()), u.defs.end());
    collect_stmt_uses(*blk.body, u.uses);
    units.push_back(std::move(u));
  }

  // Duplicate-driver check.
  std::map<std::string, int> driver_count;
  for (const auto& u : units) {
    for (const auto& d : u.defs) {
      if (++driver_count[d] > 1) {
        elab_error(u.line, "multiple combinational drivers for '" + d + "'");
      }
    }
  }

  // Kahn topo-sort on wire-to-wire dependencies.
  std::map<std::string, std::size_t> def_unit;
  for (std::size_t i = 0; i < units.size(); ++i) {
    for (const auto& d : units[i].defs) def_unit[d] = i;
  }
  std::vector<std::set<std::size_t>> deps(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    for (const auto& use : units[i].uses) {
      const auto it = def_unit.find(use);
      if (it != def_unit.end() && it->second != i) deps[i].insert(it->second);
    }
  }
  std::vector<std::size_t> order;
  std::vector<char> emitted(units.size(), 0);
  for (std::size_t round = 0; round < units.size(); ++round) {
    bool progress = false;
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (emitted[i]) continue;
      bool ready = true;
      for (const std::size_t d : deps[i]) {
        if (!emitted[d]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(i);
        emitted[i] = 1;
        progress = true;
      }
    }
    if (!progress) break;
  }
  if (order.size() != units.size()) {
    elab_error(0, "combinational cycle detected among assignments");
  }

  // Elaborate units in order.
  for (const std::size_t i : order) {
    const Unit& u = units[i];
    SymState st;
    st.env = leaves_;
    for (const auto& [name, expr] : wires_) st.env[name] = expr;

    if (u.assign != nullptr) {
      assign_lvalue(*u.assign->lhs, nullptr, st, /*nonblocking=*/false, *u.assign->rhs, true);
    } else {
      exec(*u.block->body, st, /*sequential=*/false);
    }
    for (const auto& d : u.defs) {
      const auto it = st.env.find(d);
      if (it == st.env.end()) {
        elab_error(u.line, "combinational target '" + d + "' not assigned");
      }
      wires_[d] = it->second;
      ts_.add_signal(d, it->second);
    }
  }
}

void Elaborator::build_sequential() {
  std::map<std::string, int> reg_driver;
  for (const auto& blk : module_.always_blocks) {
    if (blk.combinational) continue;
    SymState st;
    st.env = leaves_;
    for (const auto& [name, expr] : wires_) st.env[name] = expr;
    exec(*blk.body, st, /*sequential=*/true);
    for (const auto& [reg, next_val] : st.nba) {
      if (++reg_driver[reg] > 1) {
        elab_error(blk.line, "register '" + reg + "' driven by multiple always blocks");
      }
      next_[reg] = next_val;
    }
  }

  for (const auto& [name, info] : signals_) {
    if (!info.is_register) continue;
    const auto it = next_.find(name);
    const NodeRef var = leaves_.at(name);
    if (it == next_.end()) {
      // Register declared but never assigned: holds its value.
      ts_.set_next(var, var);
    } else {
      ts_.set_next(var, it->second);
    }
  }
}

void Elaborator::derive_inits() {
  auto& nm = ts_.nm();

  // Declaration initializers win.
  for (const auto& decl : module_.signals) {
    if (decl.init == nullptr) continue;
    const auto it = leaves_.find(decl.name);
    if (it == leaves_.end() || !signals_.at(decl.name).is_register) continue;
    SymState empty;
    const NodeRef v = build_expr_resized(*decl.init, decl.width, empty);
    if (!v->is_const()) elab_error(decl.line, "declaration initializer must be constant");
    ts_.set_init(it->second, v);
  }

  if (reset_.empty()) return;
  const auto rst_it = leaves_.find(reset_);
  if (rst_it == leaves_.end()) {
    elab_error(0, "reset '" + reset_ + "' is not an input of the module");
  }
  const NodeRef rst = rst_it->second;
  const NodeRef active =
      reset_active_low_ ? nm.mk_const(0, rst->width())
                        : nm.mk_ones(rst->width());

  // init(reg) = fold(next(reg)[reset := active]) when constant.
  ir::Substitution subst{{rst, active}};
  for (const auto& s : ts_.states()) {
    if (s.init != nullptr) continue;  // decl initializer took precedence
    const NodeRef under_reset = ir::substitute(s.next, subst, nm);
    if (under_reset->is_const()) {
      ts_.set_init(s.var, under_reset);
    }
    // Non-constant: leave uninitialized (over-approximate, sound).
  }

  const NodeRef inactive =
      reset_active_low_ ? nm.mk_ones(rst->width()) : nm.mk_const(0, rst->width());
  ts_.add_constraint(nm.mk_eq(rst, inactive));
}

ElaborationResult Elaborator::run() {
  collect_signals();
  scan_processes();
  build_leaves();
  build_comb();
  build_sequential();
  derive_inits();
  ts_.validate();

  ElaborationResult result{std::move(ts_), clock_, reset_, reset_active_low_};
  return result;
}

}  // namespace

ElaborationResult elaborate(const Module& module) {
  Elaborator elaborator(module);
  return elaborator.run();
}

ElaborationResult elaborate_source(const std::string& verilog) {
  const Module m = parse_module(verilog);
  return elaborate(m);
}

}  // namespace genfv::hdl
