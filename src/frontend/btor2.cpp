#include "frontend/btor2.hpp"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "frontend/symbols.hpp"
#include "util/files.hpp"
#include "util/line_reader.hpp"
#include "util/status.hpp"

namespace genfv::frontend {

namespace {

class Btor2Parser {
 public:
  Btor2Parser(std::string_view text, const std::string& file) : lines_(text, file) {}

  ir::TransitionSystem parse() {
    bool saw_line = false;
    while (!lines_.eof()) {
      std::string_view line = lines_.next_line();
      // ';' starts a comment (whole-line or trailing).
      if (const std::size_t semi = line.find(';'); semi != std::string_view::npos) {
        line = line.substr(0, semi);
      }
      const auto tokens = util::split_tokens(line);
      if (tokens.empty()) continue;
      saw_line = true;
      parse_line(tokens);
    }
    if (!saw_line) lines_.fail_at(1, "empty file");
    finish_states();
    ts_.validate();
    return std::move(ts_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const { lines_.fail(message); }

  void need_args(const std::vector<std::string_view>& tokens, std::size_t count,
                 const char* shape) const {
    if (tokens.size() != count) {
      fail("'" + std::string(tokens[1]) + "' line needs '" + shape + "'");
    }
  }

  unsigned sort_width(std::string_view token) const {
    const std::uint64_t sid = lines_.parse_uint(token, "sort id");
    const auto it = sorts_.find(sid);
    if (it == sorts_.end()) fail("references undefined sort " + std::to_string(sid));
    return it->second;
  }

  /// Operand reference: an optional '-' prefix denotes bitwise negation.
  ir::NodeRef operand(std::string_view token) {
    bool negate = false;
    if (!token.empty() && token[0] == '-') {
      negate = true;
      token.remove_prefix(1);
    }
    const std::uint64_t id = lines_.parse_uint(token, "node id");
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) fail("references undefined node " + std::to_string(id));
    return negate ? ts_.nm().mk_not(it->second) : it->second;
  }

  ir::NodeRef bool_operand(std::string_view token, const char* what) {
    ir::NodeRef node = operand(token);
    if (node->width() != 1) {
      fail(std::string(what) + " must have width 1, got width " +
           std::to_string(node->width()));
    }
    return node;
  }

  void define(std::uint64_t id, ir::NodeRef node) {
    if (!nodes_.emplace(id, node).second) {
      fail("node id " + std::to_string(id) + " is defined twice");
    }
  }

  void check_width(ir::NodeRef node, unsigned expected, const char* what) const {
    if (node->width() != expected) {
      fail(std::string(what) + " has width " + std::to_string(node->width()) +
           ", expected " + std::to_string(expected));
    }
  }

  struct StateRec {
    ir::NodeRef var = nullptr;
    bool has_init = false;
    bool has_next = false;
    std::string name;
  };

  StateRec& state_operand(std::string_view token) {
    const std::uint64_t id = lines_.parse_uint(token, "state id");
    const auto it = states_.find(id);
    if (it == states_.end()) {
      fail("node " + std::to_string(id) + " is not a state");
    }
    return it->second;
  }

  void parse_line(const std::vector<std::string_view>& tokens) {
    const std::uint64_t id = lines_.parse_uint(tokens[0], "node id");
    if (tokens.size() < 2) fail("line has an id but no operator");
    const std::string_view tag = tokens[1];

    if (tag == "sort") {
      if (tokens.size() < 3) fail("'sort' line needs a sort kind");
      if (tokens[2] == "array") {
        fail("array sorts are not supported (no memories yet)");
      }
      if (tokens[2] != "bitvec") fail("unknown sort kind '" + std::string(tokens[2]) + "'");
      need_args(tokens, 4, "<id> sort bitvec <width>");
      const std::uint64_t width = lines_.parse_uint(tokens[3], "sort width");
      if (width < 1 || width > 64) {
        // Same discipline as the HDL elaborator's register-width rejection:
        // everything downstream models values as uint64.
        fail("sort is " + std::to_string(width) +
             " bits wide; supported widths are 1..64");
      }
      if (!sorts_.emplace(id, static_cast<unsigned>(width)).second) {
        fail("sort id " + std::to_string(id) + " is defined twice");
      }
      return;
    }

    if (tag == "input" || tag == "state") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        fail("'" + std::string(tag) + "' line needs '<id> " + std::string(tag) +
             " <sort> [name]'");
      }
      const unsigned width = sort_width(tokens[2]);
      const std::string raw = tokens.size() == 4 ? std::string(tokens[3]) : "";
      if (tag == "input") {
        const std::string name = symbols_.claim(raw, "in_", input_count_++);
        define(id, ts_.add_input(name, width));
      } else {
        StateRec rec;
        rec.name = symbols_.claim(raw, "state_", state_count_++);
        rec.var = ts_.add_state(rec.name, width);
        define(id, rec.var);
        states_.emplace(id, std::move(rec));
        state_order_.push_back(id);
      }
      return;
    }

    if (tag == "init" || tag == "next") {
      need_args(tokens, 5, "<id> init/next <sort> <state> <value>");
      const unsigned width = sort_width(tokens[2]);
      StateRec& state = state_operand(tokens[3]);
      check_width(state.var, width, "state");
      ir::NodeRef value = operand(tokens[4]);
      check_width(value, width, "value");
      if (tag == "init") {
        if (state.has_init) fail("duplicate init for state '" + state.name + "'");
        state.has_init = true;
        ts_.set_init(state.var, value);
      } else {
        if (state.has_next) fail("duplicate next for state '" + state.name + "'");
        state.has_next = true;
        ts_.set_next(state.var, value);
      }
      return;
    }

    if (tag == "bad") {
      if (tokens.size() != 3 && tokens.size() != 4) fail("'bad' line needs '<id> bad <node> [name]'");
      ir::NodeRef bad = bool_operand(tokens[2], "bad-state node");
      // Stable synthesized names (`bad_N`): the anchor for per-property
      // engine overrides and lemma files on parsed designs.
      const std::string raw = tokens.size() == 4 ? std::string(tokens[3]) : "";
      const std::string name = symbols_.claim(raw, "bad_", bad_count_++);
      ir::Property property;
      property.name = name;
      property.expr = ts_.nm().mk_not(bad);
      property.role = ir::PropertyRole::Target;
      property.source_text = name;
      ts_.add_property(std::move(property));
      return;
    }

    if (tag == "constraint") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        fail("'constraint' line needs '<id> constraint <node> [name]'");
      }
      ts_.add_constraint(bool_operand(tokens[2], "constraint node"));
      return;
    }

    if (tag == "output") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        fail("'output' line needs '<id> output <node> [name]'");
      }
      ir::NodeRef node = operand(tokens[2]);
      const std::string raw = tokens.size() == 4 ? std::string(tokens[3]) : "";
      ts_.add_signal(symbols_.claim(raw, "output_", output_count_++), node);
      return;
    }

    if (tag == "fair" || tag == "justice") {
      fail("'" + std::string(tag) + "' properties are not supported "
           "(liveness is out of scope)");
    }
    if (tag == "sdivo") {
      fail("signed-division overflow ('sdivo') is not supported");
    }
    if (tag == "read" || tag == "write") {
      fail("array operations ('" + std::string(tag) + "') are not supported");
    }

    // --- constants ------------------------------------------------------------
    if (tag == "zero" || tag == "one" || tag == "ones") {
      need_args(tokens, 3, "<id> zero/one/ones <sort>");
      const unsigned width = sort_width(tokens[2]);
      if (tag == "zero") define(id, ts_.nm().mk_const(0, width));
      else if (tag == "one") define(id, ts_.nm().mk_const(1, width));
      else define(id, ts_.nm().mk_ones(width));
      return;
    }
    if (tag == "const" || tag == "constd" || tag == "consth") {
      need_args(tokens, 4, "<id> const/constd/consth <sort> <value>");
      const unsigned width = sort_width(tokens[2]);
      define(id, ts_.nm().mk_const(parse_const(tag, tokens[3], width), width));
      return;
    }

    // --- operators ------------------------------------------------------------
    if (parse_operator(id, tag, tokens)) return;
    fail("unknown BTOR2 operator '" + std::string(tag) + "'");
  }

  std::uint64_t parse_const(std::string_view tag, std::string_view token,
                            unsigned width) {
    bool negate = false;
    if (tag == "constd" && !token.empty() && token[0] == '-') {
      negate = true;
      token.remove_prefix(1);
    }
    if (token.empty()) fail("missing constant value");
    std::uint64_t value = 0;
    if (tag == "const") {
      if (token.size() != width) {
        fail("binary constant has " + std::to_string(token.size()) +
             " digits, sort is " + std::to_string(width) + " bits");
      }
      for (const char c : token) {
        if (c != '0' && c != '1') fail("binary constant has a non-binary digit");
        value = (value << 1) | static_cast<std::uint64_t>(c - '0');
      }
    } else if (tag == "constd") {
      value = lines_.parse_uint(token, "decimal constant");
    } else {
      for (const char c : token) {
        unsigned digit = 0;
        if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A' + 10);
        else fail("hex constant has a non-hex digit");
        if (value >> 60 != 0) fail("hex constant overflows 64 bits");
        value = (value << 4) | digit;
      }
    }
    if (negate) value = ~value + 1;
    const std::uint64_t masked = value & ir::width_mask(width);
    if (!negate && masked != value) {
      fail("constant does not fit in " + std::to_string(width) + " bits");
    }
    return masked;
  }

  bool parse_operator(std::uint64_t id, std::string_view tag,
                      const std::vector<std::string_view>& tokens) {
    ir::NodeManager& nm = ts_.nm();

    // Unary: <id> op <sort> <a>
    static const std::unordered_map<std::string_view, int> kUnary = {
        {"not", 0}, {"neg", 1},    {"inc", 2},    {"dec", 3},
        {"redand", 4}, {"redor", 5}, {"redxor", 6}};
    if (const auto it = kUnary.find(tag); it != kUnary.end()) {
      need_args(tokens, 4, "<id> <op> <sort> <a>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef a = operand(tokens[3]);
      ir::NodeRef result = nullptr;
      switch (it->second) {
        case 0: check_width(a, width, "operand"); result = nm.mk_not(a); break;
        case 1: check_width(a, width, "operand"); result = nm.mk_neg(a); break;
        case 2:
          check_width(a, width, "operand");
          result = nm.mk_add(a, nm.mk_const(1, a->width()));
          break;
        case 3:
          check_width(a, width, "operand");
          result = nm.mk_sub(a, nm.mk_const(1, a->width()));
          break;
        case 4: result = nm.mk_redand(a); break;
        case 5: result = nm.mk_redor(a); break;
        case 6: result = nm.mk_redxor(a); break;
      }
      check_width(result, width, "result");
      define(id, result);
      return true;
    }

    // Binary: <id> op <sort> <a> <b>
    using BinFn = ir::NodeRef (*)(ir::NodeManager&, ir::NodeRef, ir::NodeRef);
    static const std::unordered_map<std::string_view, BinFn> kBinary = {
        {"and", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_and(a, b); }},
        {"or", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_or(a, b); }},
        {"xor", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_xor(a, b); }},
        {"nand", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_nand(a, b); }},
        {"nor", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_nor(a, b); }},
        {"xnor", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_xnor(a, b); }},
        {"add", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_add(a, b); }},
        {"sub", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_sub(a, b); }},
        {"mul", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_mul(a, b); }},
        {"udiv", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_udiv(a, b); }},
        {"urem", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_urem(a, b); }},
        {"sll", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_shl(a, b); }},
        {"srl", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_lshr(a, b); }},
        {"sra", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_ashr(a, b); }},
        {"eq", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_eq(a, b); }},
        {"neq", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_ne(a, b); }},
        {"ult", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_ult(a, b); }},
        {"ulte", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_ule(a, b); }},
        {"ugt", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_ugt(a, b); }},
        {"ugte", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_uge(a, b); }},
        {"slt", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_slt(a, b); }},
        {"slte", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_sle(a, b); }},
        {"sgt", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_sgt(a, b); }},
        {"sgte", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_sge(a, b); }},
        {"concat", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_concat(a, b); }},
        {"implies", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_implies(a, b); }},
        {"iff", [](ir::NodeManager& m, ir::NodeRef a, ir::NodeRef b) { return m.mk_iff(a, b); }},
    };
    if (const auto it = kBinary.find(tag); it != kBinary.end()) {
      need_args(tokens, 5, "<id> <op> <sort> <a> <b>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef a = operand(tokens[3]);
      ir::NodeRef b = operand(tokens[4]);
      // Width discipline: everything except concat and the shifts requires
      // equal operand widths; the SortError from the NodeManager would name
      // no line, so check here first.
      if (tag != "concat" && tag != "sll" && tag != "srl" && tag != "sra" &&
          a->width() != b->width()) {
        fail("operand widths differ (" + std::to_string(a->width()) + " vs " +
             std::to_string(b->width()) + ")");
      }
      if (tag == "implies" || tag == "iff") {
        if (a->width() != 1) fail("'" + std::string(tag) + "' needs width-1 operands");
      }
      ir::NodeRef result = it->second(nm, a, b);
      check_width(result, width, "result");
      define(id, result);
      return true;
    }

    // Derived binary operators, lowered to the base IR instead of growing the
    // Op enum: rotates via a complementary shift pair, signed div/rem/mod via
    // their SMT-LIB definitional expansions over udiv/urem.
    if (tag == "rol" || tag == "ror" || tag == "sdiv" || tag == "srem" ||
        tag == "smod") {
      need_args(tokens, 5, "<id> <op> <sort> <a> <b>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef a = operand(tokens[3]);
      ir::NodeRef b = operand(tokens[4]);
      if (a->width() != b->width()) {
        fail("operand widths differ (" + std::to_string(a->width()) + " vs " +
             std::to_string(b->width()) + ")");
      }
      const unsigned w = a->width();
      ir::NodeRef result = nullptr;
      if (tag == "rol" || tag == "ror") {
        // Rotate by s = b mod w. The complementary shift amount w - s lies in
        // [1, w]; shifts >= width fold to zero (fold.cpp / the bitblaster
        // agree), so the s == 0 case degenerates correctly to the identity.
        ir::NodeRef s = nm.mk_urem(b, nm.mk_const(w, w));
        ir::NodeRef back = nm.mk_sub(nm.mk_const(w, w), s);
        result = tag == "rol"
                     ? nm.mk_or(nm.mk_shl(a, s), nm.mk_lshr(a, back))
                     : nm.mk_or(nm.mk_lshr(a, s), nm.mk_shl(a, back));
      } else {
        // SMT-LIB bvsdiv / bvsrem / bvsmod. udiv/urem by zero follow the
        // SMT-LIB totalization (all-ones / the dividend), which makes these
        // expansions match the standard's division-by-zero cases too.
        ir::NodeRef msb_a = nm.mk_bit(a, w - 1);
        ir::NodeRef msb_b = nm.mk_bit(b, w - 1);
        ir::NodeRef abs_a = nm.mk_ite(msb_a, nm.mk_neg(a), a);
        ir::NodeRef abs_b = nm.mk_ite(msb_b, nm.mk_neg(b), b);
        if (tag == "sdiv") {
          // Quotient magnitude, negated exactly when the signs differ.
          ir::NodeRef q = nm.mk_udiv(abs_a, abs_b);
          result = nm.mk_ite(nm.mk_xor(msb_a, msb_b), nm.mk_neg(q), q);
        } else if (tag == "srem") {
          // Remainder takes the sign of the dividend.
          ir::NodeRef r = nm.mk_urem(abs_a, abs_b);
          result = nm.mk_ite(msb_a, nm.mk_neg(r), r);
        } else {
          // bvsmod: result takes the sign of the divisor.
          ir::NodeRef u = nm.mk_urem(abs_a, abs_b);
          ir::NodeRef zero = nm.mk_const(0, w);
          ir::NodeRef pos_pos = nm.mk_and(nm.mk_not(msb_a), nm.mk_not(msb_b));
          ir::NodeRef neg_pos = nm.mk_and(msb_a, nm.mk_not(msb_b));
          ir::NodeRef pos_neg = nm.mk_and(nm.mk_not(msb_a), msb_b);
          result = nm.mk_ite(
              nm.mk_eq(u, zero), u,
              nm.mk_ite(pos_pos, u,
                        nm.mk_ite(neg_pos, nm.mk_add(nm.mk_neg(u), b),
                                  nm.mk_ite(pos_neg, nm.mk_add(u, b),
                                            nm.mk_neg(u)))));
        }
      }
      check_width(result, width, "result");
      define(id, result);
      return true;
    }

    if (tag == "ite") {
      need_args(tokens, 6, "<id> ite <sort> <cond> <then> <else>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef cond = bool_operand(tokens[3], "ite condition");
      ir::NodeRef t = operand(tokens[4]);
      ir::NodeRef e = operand(tokens[5]);
      if (t->width() != e->width()) fail("ite branches have different widths");
      ir::NodeRef result = nm.mk_ite(cond, t, e);
      check_width(result, width, "result");
      define(id, result);
      return true;
    }

    if (tag == "slice") {
      need_args(tokens, 6, "<id> slice <sort> <a> <hi> <lo>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef a = operand(tokens[3]);
      const std::uint64_t hi = lines_.parse_uint(tokens[4], "slice upper bound");
      const std::uint64_t lo = lines_.parse_uint(tokens[5], "slice lower bound");
      if (hi < lo) fail("slice bounds are reversed");
      if (hi >= a->width()) {
        fail("slice upper bound " + std::to_string(hi) + " exceeds operand width " +
             std::to_string(a->width()));
      }
      ir::NodeRef result = nm.mk_extract(a, static_cast<unsigned>(hi),
                                         static_cast<unsigned>(lo));
      check_width(result, width, "result");
      define(id, result);
      return true;
    }

    if (tag == "uext" || tag == "sext") {
      need_args(tokens, 5, "<id> uext/sext <sort> <a> <pad>");
      const unsigned width = sort_width(tokens[2]);
      ir::NodeRef a = operand(tokens[3]);
      const std::uint64_t pad = lines_.parse_uint(tokens[4], "extension width");
      if (a->width() + pad != width) {
        fail("extension width mismatch: operand " + std::to_string(a->width()) +
             " + pad " + std::to_string(pad) + " != sort " + std::to_string(width));
      }
      ir::NodeRef result = tag == "uext" ? nm.mk_zext(a, width) : nm.mk_sext(a, width);
      define(id, result);
      return true;
    }

    return false;
  }

  /// BTOR2 semantics for a state without `next`: the state evolves
  /// unconstrained. Model that as a fresh input feeding the register, which
  /// keeps TransitionSystem::validate()'s every-state-has-next contract.
  void finish_states() {
    // Iterate in declaration order, not unordered_map order: the synthesized
    // inputs' positions (and thus --dump-aiger output and counterexample
    // columns) must not depend on hash-table iteration order.
    for (const std::uint64_t id : state_order_) {
      StateRec& rec = states_.at(id);
      if (rec.has_next) continue;
      const std::string name = symbols_.claim(rec.name + "_next", "next_", id);
      ts_.set_next(rec.var, ts_.add_input(name, rec.var->width()));
    }
  }

  util::LineReader lines_;

  ir::TransitionSystem ts_;
  SymbolTable symbols_;
  std::unordered_map<std::uint64_t, unsigned> sorts_;
  std::unordered_map<std::uint64_t, ir::NodeRef> nodes_;
  std::unordered_map<std::uint64_t, StateRec> states_;
  std::vector<std::uint64_t> state_order_;  ///< state ids in declaration order
  std::size_t input_count_ = 0, state_count_ = 0, bad_count_ = 0, output_count_ = 0;
};

}  // namespace

ir::TransitionSystem parse_btor2(std::string_view text, const std::string& filename) {
  Btor2Parser parser(text, filename);
  ir::TransitionSystem ts = parser.parse();
  ts.set_name(design_stem(filename));
  return ts;
}

ir::TransitionSystem read_btor2_file(const std::string& path) {
  return parse_btor2(util::read_file(path), path);
}

}  // namespace genfv::frontend
