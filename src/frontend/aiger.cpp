#include "frontend/aiger.hpp"

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "bitblast/lower.hpp"
#include "frontend/symbols.hpp"
#include "util/files.hpp"
#include "util/line_reader.hpp"
#include "util/status.hpp"

namespace genfv::frontend {

namespace {

/// Refuse absurd headers before allocating anything: a fuzzed or corrupt
/// header must produce a located error, not an OOM.
constexpr std::uint64_t kMaxVariables = 50'000'000;

[[noreturn]] void fail_byte(const std::string& file, std::size_t offset,
                            const std::string& message) {
  throw ParseError(file + ":<byte " + std::to_string(offset) + ">", message);
}

/// A latch before the transition system is built: literals only.
struct RawLatch {
  std::uint32_t lit = 0;       ///< the latch's own (even) literal
  std::uint32_t next = 0;      ///< next-state literal
  std::uint32_t reset = 0;     ///< 0, 1, or `lit` (= uninitialized)
  std::size_t line = 0;
};

struct RawAnd {
  std::uint32_t rhs0 = 0;
  std::uint32_t rhs1 = 0;
  std::size_t line = 0;
  bool defined = false;
};

class AigerParser {
 public:
  AigerParser(std::string_view text, const std::string& file)
      : text_(text), file_(file), lines_(text, file) {}

  ir::TransitionSystem parse() {
    if (text_.find_first_not_of(" \t\r\n") == std::string_view::npos) {
      lines_.fail_at(1, "empty file");
    }
    parse_header();
    if (binary_) {
      read_binary_prelude();
    } else {
      read_ascii_body();
    }
    parse_symbols_and_comments();
    return build();
  }

 private:
  // --- line-oriented cursor -------------------------------------------------

  std::vector<std::string_view> next_tokens(const char* what) {
    if (lines_.eof()) {
      lines_.fail_at(lines_.line() + 1, std::string("unexpected end of file: expected ") + what);
    }
    const auto tokens = util::split_tokens(lines_.next_line());
    if (tokens.empty()) lines_.fail(std::string("blank line where ") + what + " was expected");
    return tokens;
  }

  std::uint32_t parse_literal(std::string_view token, const char* what) {
    const std::uint64_t lit = lines_.parse_uint(token, what);
    if (lit > 2 * max_var_ + 1) {
      lines_.fail(std::string("dangling ") + what + " " + std::to_string(lit) +
                  " (header allows at most " +
                  std::to_string(2 * max_var_ + 1) + ")");
    }
    return static_cast<std::uint32_t>(lit);
  }

  // --- header ---------------------------------------------------------------

  void parse_header() {
    const auto tokens = next_tokens("header");
    const std::string_view magic = tokens[0];
    if (magic == "aag") binary_ = false;
    else if (magic == "aig") binary_ = true;
    else lines_.fail("not an AIGER file (header must start with 'aag' or 'aig')");
    if (tokens.size() < 6) lines_.fail("truncated header: need 'aag M I L O A'");
    if (tokens.size() > 10) lines_.fail("header has too many fields");
    std::uint64_t fields[9] = {0};
    static const char* kNames[9] = {"M", "I", "L", "O", "A", "B", "C", "J", "F"};
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      fields[i - 1] = lines_.parse_uint(tokens[i], kNames[i - 1]);
    }
    max_var_ = fields[0];
    num_inputs_ = fields[1];
    num_latches_ = fields[2];
    num_outputs_ = fields[3];
    num_ands_ = fields[4];
    num_bads_ = fields[5];
    num_constraints_ = fields[6];
    has_bad_section_ = tokens.size() > 6;
    if (fields[7] != 0 || fields[8] != 0) {
      lines_.fail("justice/fairness properties are not supported "
                  "(liveness is out of scope)");
    }
    if (max_var_ > kMaxVariables) {
      lines_.fail("header declares " + std::to_string(max_var_) +
                  " variables; refusing (limit " +
                  std::to_string(kMaxVariables) + ")");
    }
    // Each field parses up to 2^64-1, so the sum I + L + A can wrap; check
    // every field against M individually first (M <= kMaxVariables here, so
    // the sum of in-range fields cannot overflow). Without this, a crafted
    // binary header passes the consistency check and the implicit-variable
    // loops below index far beyond var_kind_.
    if (num_inputs_ > max_var_ || num_latches_ > max_var_ || num_ands_ > max_var_ ||
        num_inputs_ + num_latches_ + num_ands_ > max_var_) {
      lines_.fail("inconsistent header: I + L + A exceeds M");
    }
    var_kind_.assign(static_cast<std::size_t>(max_var_) + 1, Kind::Undefined);
    ands_.resize(static_cast<std::size_t>(max_var_) + 1);
  }

  // --- ASCII body -----------------------------------------------------------

  void define_input(std::uint32_t lit) {
    if (lit < 2 || (lit & 1) != 0) {
      lines_.fail("input literal must be even and nonzero, got " + std::to_string(lit));
    }
    claim_var(lit >> 1, Kind::Input, "input");
    input_lits_.push_back(lit);
  }

  void define_latch(std::uint32_t lit, const std::vector<std::string_view>& tokens) {
    if (lit < 2 || (lit & 1) != 0) {
      lines_.fail("latch literal must be even and nonzero, got " + std::to_string(lit));
    }
    claim_var(lit >> 1, Kind::Latch, "latch");
    add_latch(lit, tokens, 1);
  }

  /// A latch from its line's next-state and optional reset literal, which
  /// start at tokens[first] (an ASCII line leads with the latch literal, a
  /// binary one does not).
  void add_latch(std::uint32_t lit, const std::vector<std::string_view>& tokens,
                 std::size_t first) {
    RawLatch latch;
    latch.lit = lit;
    latch.line = lines_.line();
    if (tokens.size() <= first) lines_.fail("latch line is missing its next-state literal");
    if (tokens.size() > first + 2) lines_.fail("latch line has trailing fields");
    latch.next = parse_literal(tokens[first], "next-state literal");
    latch.reset = 0;  // AIGER default: latches reset to 0
    if (tokens.size() == first + 2) {
      latch.reset = parse_literal(tokens[first + 1], "reset literal");
      if (latch.reset != 0 && latch.reset != 1 && latch.reset != lit) {
        lines_.fail("latch reset must be 0, 1 or the latch literal itself, got " +
                    std::to_string(latch.reset));
      }
    }
    latches_.push_back(latch);
  }

  void read_ascii_body() {
    for (std::uint64_t i = 0; i < num_inputs_; ++i) {
      const auto tokens = next_tokens("input definition");
      if (tokens.size() != 1) lines_.fail("input line must hold exactly one literal");
      define_input(parse_literal(tokens[0], "input literal"));
    }
    for (std::uint64_t i = 0; i < num_latches_; ++i) {
      const auto tokens = next_tokens("latch definition");
      define_latch(parse_literal(tokens[0], "latch literal"), tokens);
    }
    read_literal_section(num_outputs_, output_lits_, "output literal");
    read_literal_section(num_bads_, bad_lits_, "bad-state literal");
    read_literal_section(num_constraints_, constraint_lits_, "constraint literal");
    for (std::uint64_t i = 0; i < num_ands_; ++i) {
      const auto tokens = next_tokens("and-gate definition");
      if (tokens.size() != 3) lines_.fail("and-gate line needs 'lhs rhs0 rhs1'");
      const std::uint32_t lhs = parse_literal(tokens[0], "and-gate literal");
      if (lhs < 2 || (lhs & 1) != 0) {
        lines_.fail("and-gate literal must be even and nonzero, got " + std::to_string(lhs));
      }
      claim_var(lhs >> 1, Kind::And, "and gate");
      RawAnd& gate = ands_[lhs >> 1];
      gate.rhs0 = parse_literal(tokens[1], "and-gate operand");
      gate.rhs1 = parse_literal(tokens[2], "and-gate operand");
      gate.line = lines_.line();
      gate.defined = true;
    }
  }

  void read_literal_section(std::uint64_t count, std::vector<std::uint32_t>& out,
                            const char* what) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto tokens = next_tokens(what);
      if (tokens.size() != 1) {
        lines_.fail(std::string(what) + " line must hold exactly one literal");
      }
      out.push_back(parse_literal(tokens[0], what));
    }
  }

  // --- binary body ----------------------------------------------------------

  void read_binary_prelude() {
    // Inputs are implicit: variables 1..I in order.
    for (std::uint64_t i = 0; i < num_inputs_; ++i) {
      const std::uint32_t var = static_cast<std::uint32_t>(i + 1);
      var_kind_[var] = Kind::Input;
      input_lits_.push_back(2 * var);
    }
    // Latches are implicit variables I+1..I+L; their lines carry only the
    // next-state (and optional reset) literal.
    for (std::uint64_t i = 0; i < num_latches_; ++i) {
      const std::uint32_t var = static_cast<std::uint32_t>(num_inputs_ + i + 1);
      var_kind_[var] = Kind::Latch;
      add_latch(2 * var, next_tokens("latch definition"), 0);
    }
    read_literal_section(num_outputs_, output_lits_, "output literal");
    read_literal_section(num_bads_, bad_lits_, "bad-state literal");
    read_literal_section(num_constraints_, constraint_lits_, "constraint literal");
    // Delta-encoded gate section: gate g defines variable I+L+g+1 as
    // lhs = 2*var, rhs0 = lhs - delta0, rhs1 = rhs0 - delta1.
    std::size_t pos = lines_.offset();
    for (std::uint64_t g = 0; g < num_ands_; ++g) {
      const std::uint32_t var =
          static_cast<std::uint32_t>(num_inputs_ + num_latches_ + g + 1);
      const std::uint64_t lhs = 2ULL * var;
      const std::uint64_t delta0 = decode_varint(pos);
      const std::uint64_t delta1 = decode_varint(pos);
      if (delta0 == 0 || delta0 > lhs) {
        fail_byte(file_, pos, "binary and-gate " + std::to_string(g) +
                                   " has an out-of-order operand (delta0)");
      }
      const std::uint64_t rhs0 = lhs - delta0;
      if (delta1 > rhs0) {
        fail_byte(file_, pos, "binary and-gate " + std::to_string(g) +
                                   " has an out-of-order operand (delta1)");
      }
      var_kind_[var] = Kind::And;
      RawAnd& gate = ands_[var];
      gate.rhs0 = static_cast<std::uint32_t>(rhs0);
      gate.rhs1 = static_cast<std::uint32_t>(rhs0 - delta1);
      gate.line = lines_.line();
      gate.defined = true;
    }
    // The symbol/comment sections after the gates are text lines again.
    lines_.seek(pos);
  }

  std::uint64_t decode_varint(std::size_t& pos) const {
    std::uint64_t value = 0;
    unsigned shift = 0;
    while (true) {
      if (pos >= text_.size()) fail_byte(file_, pos, "unexpected end of binary gate section");
      const auto byte = static_cast<unsigned char>(text_[pos++]);
      if (shift >= 63) fail_byte(file_, pos, "binary gate delta overflows");
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  // --- symbols and comments --------------------------------------------------

  void parse_symbols_and_comments() {
    while (!lines_.eof()) {
      const std::string_view line = lines_.next_line();
      if (line == "c" || line == "c\r") return;  // comment section: rest is free text
      const auto tokens = util::split_tokens(line);
      if (tokens.empty()) continue;
      const std::string_view head = tokens[0];
      const char kind = head.empty() ? '\0' : head[0];
      if (kind != 'i' && kind != 'l' && kind != 'o' && kind != 'b' && kind != 'c' &&
          kind != 'j' && kind != 'f') {
        lines_.fail("expected a symbol table entry or the comment marker 'c', "
                    "got '" + std::string(line.substr(0, 32)) + "'");
      }
      const std::uint64_t pos = lines_.parse_uint(head.substr(1), "symbol position");
      if (tokens.size() < 2) lines_.fail("symbol entry is missing its name");
      // The name is everything after the first token (may contain blanks;
      // the sanitizer flattens them later).
      std::string name;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (i > 1) name += '_';
        name += std::string(tokens[i]);
      }
      std::unordered_map<std::uint64_t, std::string>* table = nullptr;
      std::uint64_t limit = 0;
      switch (kind) {
        case 'i': table = &input_names_; limit = num_inputs_; break;
        case 'l': table = &latch_names_; limit = num_latches_; break;
        case 'o': table = &output_names_; limit = num_outputs_; break;
        case 'b': table = &bad_names_; limit = num_bads_; break;
        case 'c': table = &constraint_names_; limit = num_constraints_; break;
        default: continue;  // j/f symbols can only appear with J=F=0 rejected above
      }
      if (pos >= limit) {
        lines_.fail("symbol '" + std::string(head) + "' is out of range");
      }
      if (!table->emplace(pos, std::move(name)).second) {
        lines_.fail("duplicate symbol '" + std::string(head) + "'");
      }
    }
  }

  // --- building the transition system ----------------------------------------

  enum class Kind : std::uint8_t { Undefined, Input, Latch, And };

  void claim_var(std::uint64_t var, Kind kind, const char* what) {
    if (var == 0 || var > max_var_) {
      lines_.fail(std::string(what) + " variable out of range");
    }
    if (var_kind_[var] != Kind::Undefined) {
      lines_.fail("variable " + std::to_string(var) +
                  " is defined twice (as " + std::string(what) + ")");
    }
    var_kind_[var] = kind;
  }

  /// Expression for a literal; gates are built on demand, iteratively, with
  /// cycle detection (the ASCII format allows gates in any order).
  ir::NodeRef lit_expr(ir::TransitionSystem& ts, std::uint32_t lit, std::size_t line) {
    const std::uint32_t var = lit >> 1;
    if (var == 0) {
      return (lit & 1) != 0 ? ts.nm().mk_true() : ts.nm().mk_false();
    }
    if (var_expr_[var] == nullptr) build_gate(ts, var, line);
    ir::NodeRef expr = var_expr_[var];
    return (lit & 1) != 0 ? ts.nm().mk_not(expr) : expr;
  }

  void build_gate(ir::TransitionSystem& ts, std::uint32_t root, std::size_t line) {
    enum : std::uint8_t { kNew = 0, kOpen = 1 };
    std::vector<std::uint32_t> stack{root};
    std::vector<std::uint8_t> open(var_kind_.size(), kNew);
    while (!stack.empty()) {
      const std::uint32_t var = stack.back();
      if (var_expr_[var] != nullptr) {
        stack.pop_back();
        continue;
      }
      if (var_kind_[var] != Kind::And) {
        lines_.fail_at(line, "literal " + std::to_string(2 * var) +
                             " references undefined variable " + std::to_string(var));
      }
      const RawAnd& gate = ands_[var];
      if (!gate.defined) {
        lines_.fail_at(line, "and gate for variable " + std::to_string(var) + " is never defined");
      }
      const std::uint32_t c0 = gate.rhs0 >> 1;
      const std::uint32_t c1 = gate.rhs1 >> 1;
      bool ready = true;
      for (const std::uint32_t child : {c0, c1}) {
        if (child != 0 && var_expr_[child] == nullptr) {
          if (open[child] == kOpen) {
            lines_.fail_at(gate.line, "combinational cycle through and gate " +
                                      std::to_string(2 * var));
          }
          if (ready) ready = false;
          stack.push_back(child);
        }
      }
      if (!ready) {
        open[var] = kOpen;
        continue;
      }
      ir::NodeRef a = lit_expr(ts, gate.rhs0, gate.line);
      ir::NodeRef b = lit_expr(ts, gate.rhs1, gate.line);
      var_expr_[var] = ts.nm().mk_and(a, b);
      stack.pop_back();
    }
  }

  std::string name_of(const std::unordered_map<std::uint64_t, std::string>& table,
                      std::uint64_t pos) const {
    const auto it = table.find(pos);
    return it == table.end() ? "" : it->second;
  }

  ir::TransitionSystem build() {
    ir::TransitionSystem ts;
    var_expr_.assign(var_kind_.size(), nullptr);

    SymbolTable symbols;
    for (std::size_t i = 0; i < input_lits_.size(); ++i) {
      const std::string name = symbols.claim(name_of(input_names_, i), "in_", i);
      var_expr_[input_lits_[i] >> 1] = ts.add_input(name, 1);
    }
    std::vector<ir::NodeRef> latch_vars;
    latch_vars.reserve(latches_.size());
    for (std::size_t i = 0; i < latches_.size(); ++i) {
      const std::string name = symbols.claim(name_of(latch_names_, i), "latch_", i);
      latch_vars.push_back(ts.add_state(name, 1));
      var_expr_[latches_[i].lit >> 1] = latch_vars.back();
    }
    for (std::size_t i = 0; i < latches_.size(); ++i) {
      const RawLatch& latch = latches_[i];
      ts.set_next(latch_vars[i], lit_expr(ts, latch.next, latch.line));
      if (latch.reset == 0) ts.set_init(latch_vars[i], ts.nm().mk_false());
      else if (latch.reset == 1) ts.set_init(latch_vars[i], ts.nm().mk_true());
      // reset == its own literal: uninitialized, init stays null.
    }

    // HWMCC'10 convention: an AIGER 1.0 file (no B/C header fields) uses its
    // outputs as bad-state literals; a 1.9 file keeps them as named signals.
    const bool outputs_are_bad = !has_bad_section_ && num_bads_ == 0;
    std::vector<std::uint32_t>& bads = outputs_are_bad ? output_lits_ : bad_lits_;
    const auto& bad_name_table = outputs_are_bad ? output_names_ : bad_names_;
    if (!outputs_are_bad) {
      for (std::size_t i = 0; i < output_lits_.size(); ++i) {
        const std::string name = symbols.claim(name_of(output_names_, i), "output_", i);
        ts.add_signal(name, lit_expr(ts, output_lits_[i], lines_.line()));
      }
    }
    for (std::size_t i = 0; i < bads.size(); ++i) {
      // Stable synthesized names (`bad_N`) unless the symbol table names the
      // property — the anchor for per-property engine overrides and lemma
      // files on parsed designs.
      const std::string name = symbols.claim(name_of(bad_name_table, i), "bad_", i);
      ir::Property property;
      property.name = name;
      property.expr = ts.nm().mk_not(lit_expr(ts, bads[i], lines_.line()));
      property.role = ir::PropertyRole::Target;
      property.source_text = name;
      ts.add_property(std::move(property));
    }
    for (const std::uint32_t lit : constraint_lits_) {
      ts.add_constraint(lit_expr(ts, lit, lines_.line()));
    }
    ts.validate();
    return ts;
  }

  std::string_view text_;
  std::string file_;
  util::LineReader lines_;
  bool binary_ = false;

  std::uint64_t max_var_ = 0;
  std::uint64_t num_inputs_ = 0, num_latches_ = 0, num_outputs_ = 0, num_ands_ = 0;
  std::uint64_t num_bads_ = 0, num_constraints_ = 0;
  bool has_bad_section_ = false;

  std::vector<Kind> var_kind_;
  std::vector<RawAnd> ands_;
  std::vector<RawLatch> latches_;
  std::vector<std::uint32_t> input_lits_, output_lits_, bad_lits_, constraint_lits_;
  std::unordered_map<std::uint64_t, std::string> input_names_, latch_names_,
      output_names_, bad_names_, constraint_names_;
  std::vector<ir::NodeRef> var_expr_;
};

}  // namespace

ir::TransitionSystem parse_aiger(std::string_view text, const std::string& filename) {
  AigerParser parser(text, filename);
  ir::TransitionSystem ts = parser.parse();
  ts.set_name(design_stem(filename));
  return ts;
}

ir::TransitionSystem read_aiger_file(const std::string& path) {
  return parse_aiger(util::read_file(path), path);
}

// --- writer ---------------------------------------------------------------------

namespace {

/// The AIGER writer's gate builder for bitblast::lower: structurally hashed
/// AND nodes, with or/xor/mux derived from them. An AIGER literal is
/// 2*var + sign with var 0 the constant (0 = false, 1 = true), which is
/// exactly a sat::Lit code, so the lowering's literals print as `.code`.
class AigBuilder {
 public:
  using Lit = sat::Lit;

  static Lit lit_false() { return Lit{0}; }
  static Lit lit_true() { return Lit{1}; }

  Lit new_leaf() { return sat::mk_lit(next_var_++); }
  std::uint32_t num_vars() const { return next_var_ - 1; }
  const std::vector<std::pair<Lit, Lit>>& ands() const { return ands_; }

  Lit gate_and(Lit a, Lit b) {
    if (a == lit_false() || b == lit_false()) return lit_false();
    if (a == lit_true()) return b;
    if (b == lit_true()) return a;
    if (a == b) return a;
    if (a == ~b) return lit_false();
    if (a < b) std::swap(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(a.code) << 32) |
                              static_cast<std::uint32_t>(b.code);
    const auto it = cons_.find(key);
    if (it != cons_.end()) return it->second;
    const Lit lit = new_leaf();
    ands_.emplace_back(a, b);
    cons_.emplace(key, lit);
    return lit;
  }

  Lit gate_or(Lit a, Lit b) { return ~gate_and(~a, ~b); }
  // xor and mux are OR-of-two-ANDs; the second product is built first, which
  // is the gate order the committed corpus files pin.
  Lit gate_xor(Lit a, Lit b) {
    const Lit b_only = gate_and(~a, b);
    const Lit a_only = gate_and(a, ~b);
    return gate_or(a_only, b_only);
  }
  Lit gate_mux(Lit cond, Lit t, Lit e) {
    const Lit else_arm = gate_and(~cond, e);
    const Lit then_arm = gate_and(cond, t);
    return gate_or(then_arm, else_arm);
  }

 private:
  std::uint32_t next_var_ = 1;
  std::vector<std::pair<Lit, Lit>> ands_;
  std::unordered_map<std::uint64_t, Lit> cons_;
};

using bitblast::Bits;

/// Lower a word-level node into AIG literals, memoized; leaves must already
/// be bound in `cache`.
const Bits& blast(AigBuilder& aig, ir::NodeRef node, bitblast::BlastCache& cache) {
  return bitblast::blast_dag(node, cache,
                             [&](ir::NodeRef n) { return bitblast::lower(aig, n, cache); });
}

std::string bit_name(SymbolTable& symbols, const std::string& base, unsigned width,
                     unsigned bit) {
  const std::string desired = width == 1 ? base : base + "_" + std::to_string(bit);
  return symbols.claim(desired, "v_", bit);
}

/// LEB128-style varint the binary gate section uses (7 payload bits per
/// byte, high bit = continuation).
void put_varint(std::ostream& out, std::uint32_t value) {
  while (value >= 0x80U) {
    out.put(static_cast<char>((value & 0x7FU) | 0x80U));
    value >>= 7;
  }
  out.put(static_cast<char>(value));
}

/// Shared writer core: builds the AIG once, serializes as ASCII "aag" or
/// binary "aig". The builder already keeps the standard variable ordering
/// (inputs, latches, gates — consecutively numbered) and stores each AND's
/// larger operand first, which is exactly the normal form the binary
/// delta encoding requires, so the two renderings differ only in syntax.
std::string render_aiger(const ir::TransitionSystem& ts, bool binary) {
  AigBuilder aig;
  bitblast::BlastCache cache;
  SymbolTable symbols;

  // Inputs first, latches second: the writer keeps AIGER's conventional
  // contiguous variable layout, which also keeps the file binary-convertible.
  std::vector<std::string> input_names;
  for (const ir::NodeRef input : ts.inputs()) {
    Bits bits;
    bits.reserve(input->width());
    for (unsigned b = 0; b < input->width(); ++b) {
      input_names.push_back(bit_name(symbols, input->name(), input->width(), b));
      bits.push_back(aig.new_leaf());
    }
    cache.emplace(input, std::move(bits));
  }
  const std::uint32_t num_inputs = aig.num_vars();

  std::vector<std::string> latch_names;
  for (const ir::StateVar& state : ts.states()) {
    Bits bits;
    bits.reserve(state.var->width());
    for (unsigned b = 0; b < state.var->width(); ++b) {
      latch_names.push_back(bit_name(symbols, state.var->name(), state.var->width(), b));
      bits.push_back(aig.new_leaf());
    }
    cache.emplace(state.var, std::move(bits));
  }
  const std::uint32_t num_latches = aig.num_vars() - num_inputs;

  // Latch next/reset per bit. Init expressions must fold to constants — the
  // format has no richer reset language (AIGER 1.9 resets are 0/1/self).
  struct LatchLine {
    sat::Lit next;
    int reset;  // 0, 1, or -1 = uninitialized (emitted as the latch's own literal)
  };
  std::vector<LatchLine> latch_lines;
  for (const ir::StateVar& state : ts.states()) {
    const Bits& next_bits = blast(aig, state.next, cache);
    int init_kind = -1;  // uninitialized
    std::uint64_t init_value = 0;
    if (state.init != nullptr) {
      if (!state.init->is_const()) {
        throw UsageError("aiger writer: register '" + state.var->name() +
                         "' has a non-constant init expression, which AIGER resets "
                         "cannot express");
      }
      init_kind = 0;
      init_value = state.init->value();
    }
    for (unsigned b = 0; b < state.var->width(); ++b) {
      LatchLine line;
      line.next = next_bits[b];
      line.reset = init_kind < 0 ? -1 : static_cast<int>((init_value >> b) & 1ULL);
      latch_lines.push_back(line);
    }
  }

  // Named signals -> AIGER outputs, one per bit, so a parse -> write round
  // trip of a 1.9 file with an O section is not silently lossy.
  std::vector<std::pair<std::string, sat::Lit>> outputs;
  for (const auto& [signal_name, expr] : ts.signals()) {
    const Bits& bits = blast(aig, expr, cache);
    for (unsigned b = 0; b < expr->width(); ++b) {
      outputs.emplace_back(bit_name(symbols, signal_name, expr->width(), b), bits[b]);
    }
  }

  // Target properties -> bad-state literals (bad = NOT property). Names go
  // through the same claim order the reader uses (inputs, latches, outputs,
  // bads), so collisions resolve identically on both sides and emitted files
  // round-trip with stable names — sanitize alone could produce an empty or
  // duplicate name the reader would reject or rename.
  std::vector<std::pair<std::string, sat::Lit>> bads;
  std::size_t bad_index = 0;
  for (const ir::Property& property : ts.properties()) {
    if (property.role != ir::PropertyRole::Target) continue;
    const Bits& bits = blast(aig, property.expr, cache);
    bads.emplace_back(symbols.claim(property.name, "bad_", bad_index++), ~bits[0]);
  }
  std::vector<sat::Lit> constraint_lits;
  for (const ir::NodeRef constraint : ts.constraints()) {
    constraint_lits.push_back(blast(aig, constraint, cache)[0]);
  }

  std::ostringstream out;
  out << (binary ? "aig " : "aag ") << aig.num_vars() << ' ' << num_inputs << ' '
      << num_latches << ' ' << outputs.size() << ' ' << aig.ands().size();
  // The B field is mandatory whenever outputs exist: without it a reader
  // following the HWMCC'10 convention would reinterpret the outputs as
  // bad-state literals.
  if (!constraint_lits.empty()) {
    out << ' ' << bads.size() << ' ' << constraint_lits.size();
  } else if (!bads.empty() || !outputs.empty()) {
    out << ' ' << bads.size();
  }
  out << '\n';
  // Binary files imply the input literals (2, 4, ...) and the latch lhs.
  if (!binary) {
    for (std::uint32_t v = 1; v <= num_inputs; ++v) out << 2 * v << '\n';
  }
  for (std::size_t i = 0; i < latch_lines.size(); ++i) {
    const std::uint32_t lit = 2 * (num_inputs + static_cast<std::uint32_t>(i) + 1);
    if (!binary) out << lit << ' ';
    out << latch_lines[i].next.code;
    if (latch_lines[i].reset == 1) out << " 1";
    else if (latch_lines[i].reset < 0) out << ' ' << lit;
    out << '\n';
  }
  for (const auto& [name, lit] : outputs) out << lit.code << '\n';
  for (const auto& [name, lit] : bads) out << lit.code << '\n';
  for (const sat::Lit lit : constraint_lits) out << lit.code << '\n';
  for (std::size_t g = 0; g < aig.ands().size(); ++g) {
    const std::uint32_t lhs = 2 * (num_inputs + num_latches + static_cast<std::uint32_t>(g) + 1);
    // gate_and stores the larger operand first, so first/second are already
    // the (hi, lo) pair the delta encoding wants; structural ordering
    // guarantees hi < lhs.
    const std::uint32_t hi = aig.ands()[g].first.code;
    const std::uint32_t lo = aig.ands()[g].second.code;
    if (binary) {
      put_varint(out, lhs - hi);
      put_varint(out, hi - lo);
    } else {
      out << lhs << ' ' << hi << ' ' << lo << '\n';
    }
  }
  for (std::size_t i = 0; i < input_names.size(); ++i) {
    out << 'i' << i << ' ' << input_names[i] << '\n';
  }
  for (std::size_t i = 0; i < latch_names.size(); ++i) {
    out << 'l' << i << ' ' << latch_names[i] << '\n';
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out << 'o' << i << ' ' << outputs[i].first << '\n';
  }
  for (std::size_t i = 0; i < bads.size(); ++i) {
    out << 'b' << i << ' ' << bads[i].first << '\n';
  }
  out << "c\ngenfv aiger writer: " << ts.name() << '\n';
  return out.str();
}

}  // namespace

std::string write_aiger(const ir::TransitionSystem& ts) {
  return render_aiger(ts, /*binary=*/false);
}

std::string write_aiger_binary(const ir::TransitionSystem& ts) {
  return render_aiger(ts, /*binary=*/true);
}

void write_aiger_file(const std::string& path, const ir::TransitionSystem& ts) {
  // Render before touching the file, so a system the format cannot express
  // leaves an existing file as it was.
  util::write_file(path, render_aiger(ts, /*binary=*/util::lower_extension(path) == "aig"));
}

}  // namespace genfv::frontend
