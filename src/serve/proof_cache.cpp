#include "serve/proof_cache.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/files.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::serve {

namespace {

/// The clause ¬cube over `ts`, or nullptr when the cube does not fit `ts`
/// (empty, or a state index or bit out of range). Entries are outside input,
/// so this check stands in front of `pdr::clause_expr`, which asserts.
ir::NodeRef clause_in(const ir::TransitionSystem& ts, const mc::pdr::Cube& cube) {
  if (cube.empty()) return nullptr;
  for (const mc::pdr::StateLit& lit : cube) {
    if (lit.state >= ts.states().size()) return nullptr;
    if (lit.bit >= ts.states()[lit.state].var->width()) return nullptr;
  }
  return mc::pdr::clause_expr(ts, cube);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

std::string to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::Miss: return "miss";
    case CacheOutcome::Exact: return "exact";
    case CacheOutcome::Near: return "near";
  }
  return "?";
}

std::uint64_t ProofCache::targets_hash(ir::StructHasher& hasher,
                                       const std::vector<ir::NodeRef>& targets) {
  // Chain property hashes order-sensitively; a different target list is a
  // different job even over the same system.
  std::uint64_t h = 0x7a26e75ULL;
  for (const ir::NodeRef t : targets) {
    h = h * 0x100000001b3ULL + hasher.property_hash(t);
  }
  return h;
}

std::uint64_t ProofCache::entry_key(std::uint64_t sys_hash, std::uint64_t prop_hash) {
  return sys_hash * 0x9e3779b97f4a7c15ULL + prop_hash;
}

std::string ProofCache::entry_path(std::uint64_t key) const {
  return options_.dir + "/" + hex64(key) + ".pcache";
}

ProofCache::ProofCache(Options options) : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    std::filesystem::create_directories(options_.dir);
    const std::uint64_t rejected = load_dir();
    if (rejected > 0) {
      util::metrics().counter("serve.cache.rejected").add(rejected);
    }
  }
}

std::uint64_t ProofCache::load_dir() {
  std::uint64_t rejected = 0;
  std::map<std::uint64_t, std::shared_ptr<const CacheEntry>> loaded;
  for (const auto& dirent : std::filesystem::directory_iterator(options_.dir)) {
    if (dirent.path().extension() != ".pcache") continue;
    std::ifstream in(dirent.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      auto entry = std::make_shared<const CacheEntry>(parse_entry(buffer.str()));
      loaded[entry_key(entry->sys_hash, entry->prop_hash)] = std::move(entry);
    } catch (const Error&) {
      // Corrupted/truncated/foreign file: reject, never best-effort trust.
      ++rejected;
    }
  }
  util::MutexLock lock(mu_);
  entries_ = std::move(loaded);
  rejected_ += rejected;
  return rejected;
}

CacheLookup ProofCache::lookup(const ir::TransitionSystem& ts,
                               const std::vector<ir::NodeRef>& targets) const {
  ir::StructHasher hasher(ts);
  const std::uint64_t sys = hasher.system_hash();
  const std::uint64_t prop = targets_hash(hasher, targets);

  // Snapshot the table under the lock, then diff outside it: signature
  // diffing walks node DAGs and must not serialize concurrent lookups.
  std::vector<std::shared_ptr<const CacheEntry>> candidates;
  {
    util::MutexLock lock(mu_);
    const auto exact = entries_.find(entry_key(sys, prop));
    if (exact != entries_.end() && exact->second->sys_hash == sys &&
        exact->second->prop_hash == prop) {
      return CacheLookup{CacheOutcome::Exact, exact->second, 1.0};
    }
    candidates.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) candidates.push_back(entry);
  }

  CacheLookup best;
  for (const auto& entry : candidates) {
    const ir::StructDiff diff = ir::struct_diff(entry->state_sigs, ts);
    const double similarity = diff.similarity();
    if (similarity < options_.near_threshold || similarity <= best.similarity) {
      continue;
    }
    best = CacheLookup{CacheOutcome::Near, entry, similarity};
  }
  return best;
}

bool ProofCache::store(const std::string& design, const ir::TransitionSystem& ts,
                       const std::vector<ir::NodeRef>& targets,
                       const mc::EngineResult& result) {
  if (result.verdict != mc::Verdict::Proven || result.invariant.empty()) {
    return false;
  }
  auto entry = std::make_shared<CacheEntry>();
  entry->design = design;
  ir::StructHasher hasher(ts);
  entry->sys_hash = hasher.system_hash();
  entry->prop_hash = targets_hash(hasher, targets);
  entry->state_sigs = hasher.state_signatures();
  entry->depth = result.depth;
  entry->clauses.reserve(result.invariant.size());
  for (const ir::NodeRef expr : result.invariant) {
    auto cube = mc::pdr::cube_of_clause(ts, expr);
    if (!cube.has_value()) {
      // The invariant is only *jointly* inductive; if one clause does not
      // round-trip through the neutral form, a partial store could never
      // recertify — store nothing.
      return false;
    }
    entry->clauses.push_back(std::move(*cube));
  }

  if (!options_.dir.empty()) persist(*entry);
  util::metrics().counter("serve.cache.stores").increment();
  util::MutexLock lock(mu_);
  entries_[entry_key(entry->sys_hash, entry->prop_hash)] = std::move(entry);
  return true;
}

void ProofCache::invalidate(std::uint64_t sys_hash, std::uint64_t prop_hash) {
  const std::uint64_t key = entry_key(sys_hash, prop_hash);
  {
    util::MutexLock lock(mu_);
    entries_.erase(key);
    ++rejected_;
  }
  util::metrics().counter("serve.cache.rejected").increment();
  if (!options_.dir.empty()) {
    std::error_code ec;  // removal failure is not an error: entry is gone from memory
    std::filesystem::remove(entry_path(key), ec);
  }
}

std::size_t ProofCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

std::uint64_t ProofCache::rejected_files() const {
  util::MutexLock lock(mu_);
  return rejected_;
}

void ProofCache::persist(const CacheEntry& entry) const {
  const std::uint64_t key = entry_key(entry.sys_hash, entry.prop_hash);
  const std::string path = entry_path(key);
  // Write-then-rename so a concurrent reader / crashed writer can never
  // observe a truncated entry (it would be rejected anyway, but noisily).
  const std::string tmp = path + ".tmp";
  try {
    util::write_file(tmp, render_entry(entry));
    std::filesystem::rename(tmp, path);
  } catch (const std::exception& e) {
    // The disk copy is an optimization across restarts; the verdict and the
    // in-memory entry stand without it.
    GENFV_LOG(Warn, "serve") << "proof cache: entry kept in memory only: " << e.what();
  }
}

std::string ProofCache::render_entry(const CacheEntry& entry) {
  std::ostringstream out;
  out << "# genfv-proof-cache 1\n";
  out << "design " << entry.design << "\n";
  out << "sys " << hex64(entry.sys_hash) << "\n";
  out << "prop " << hex64(entry.prop_hash) << "\n";
  out << "depth " << entry.depth << "\n";
  out << "states " << entry.state_sigs.size() << "\n";
  for (const auto& sig : entry.state_sigs) {
    out << "sig " << sig.width << " " << hex64(sig.sig) << "\n";
  }
  out << "clauses " << entry.clauses.size() << "\n";
  for (const auto& clause : entry.clauses) {
    out << "clause";
    for (const auto& lit : clause) {
      out << " " << lit.state << "." << lit.bit << (lit.negated ? "-" : "+");
    }
    out << "\n";
  }
  return out.str();
}

namespace {

/// Line-based parser with located errors ("pcache:line N").
class EntryParser {
 public:
  explicit EntryParser(const std::string& text) : in_(text) {}

  CacheEntry run() {
    expect_line("# genfv-proof-cache 1");
    CacheEntry entry;
    entry.design = rest_of(next_line(), "design ");
    entry.sys_hash = parse_hex(rest_of(next_line(), "sys "));
    entry.prop_hash = parse_hex(rest_of(next_line(), "prop "));
    entry.depth = parse_count(rest_of(next_line(), "depth "));
    const std::size_t num_states = parse_count(rest_of(next_line(), "states "));
    entry.state_sigs.reserve(num_states);
    for (std::size_t i = 0; i < num_states; ++i) {
      std::istringstream fields(rest_of(next_line(), "sig "));
      ir::StateSig sig;
      std::string hex;
      if (!(fields >> sig.width >> hex) || sig.width == 0 || sig.width > 64) {
        fail("malformed state signature");
      }
      sig.sig = parse_hex(hex);
      entry.state_sigs.push_back(sig);
    }
    const std::size_t num_clauses = parse_count(rest_of(next_line(), "clauses "));
    entry.clauses.reserve(num_clauses);
    for (std::size_t i = 0; i < num_clauses; ++i) {
      entry.clauses.push_back(parse_clause(rest_of(next_line(), "clause")));
    }
    std::string trailing;
    if (std::getline(in_, trailing) && !trailing.empty()) {
      ++line_no_;
      fail("trailing content after the clause list");
    }
    return entry;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("pcache:line " + std::to_string(line_no_), what);
  }

  std::string next_line() {
    std::string line;
    if (!std::getline(in_, line)) fail("unexpected end of entry");
    ++line_no_;
    return line;
  }

  void expect_line(const std::string& expected) {
    if (next_line() != expected) fail("expected '" + expected + "'");
  }

  std::string rest_of(const std::string& line, const std::string& prefix) {
    if (line.size() < prefix.size() || line.compare(0, prefix.size(), prefix) != 0) {
      fail("expected a '" + prefix + "' line");
    }
    return line.substr(prefix.size());
  }

  std::uint64_t parse_hex(const std::string& text) {
    std::uint64_t v = 0;
    if (text.empty() || text.size() > 16) fail("malformed hash");
    for (const char c : text) {
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
      else fail("malformed hash");
    }
    return v;
  }

  std::size_t parse_count(const std::string& text) {
    if (text.empty()) fail("malformed count");
    std::size_t v = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') fail("malformed count");
      if (v > (std::size_t(-1) - 9) / 10) fail("count out of range");
      v = v * 10 + static_cast<std::size_t>(c - '0');
    }
    return v;
  }

  mc::pdr::Cube parse_clause(const std::string& body) {
    mc::pdr::Cube clause;
    std::istringstream fields(body);
    std::string token;
    while (fields >> token) {
      const std::size_t dot = token.find('.');
      if (dot == std::string::npos || dot == 0 || dot + 2 > token.size()) {
        fail("malformed clause literal");
      }
      const char polarity = token.back();
      if (polarity != '+' && polarity != '-') fail("malformed clause literal");
      mc::pdr::StateLit lit;
      lit.state = static_cast<std::uint32_t>(
          parse_count(token.substr(0, dot)));
      lit.bit = static_cast<std::uint32_t>(
          parse_count(token.substr(dot + 1, token.size() - dot - 2)));
      lit.negated = polarity == '-';
      clause.push_back(lit);
    }
    if (clause.empty()) fail("empty clause");
    return clause;
  }

  std::istringstream in_;
  std::size_t line_no_ = 0;
};

}  // namespace

CacheEntry ProofCache::parse_entry(const std::string& text) {
  return EntryParser(text).run();
}

mc::EngineResult recertify(const ir::TransitionSystem& ts,
                           const std::vector<ir::NodeRef>& targets,
                           const CacheEntry& entry, const mc::EngineOptions& base) {
  std::vector<ir::NodeRef> goals = targets;
  goals.reserve(targets.size() + entry.clauses.size());
  for (const auto& clause : entry.clauses) {
    const ir::NodeRef expr = clause_in(ts, clause);
    if (expr == nullptr) {
      // The clause names a state this system does not have: the entry cannot
      // certify here, report the refutation without burning SAT time.
      mc::EngineResult failed;
      failed.verdict = mc::Verdict::Unknown;
      return failed;
    }
    goals.push_back(expr);
  }
  // One-step induction over targets ∧ clauses: init ⊨ all, and all at frame
  // k force all at frame k+1 — the textbook inductive-invariant check,
  // discharged by an independent SAT run over the *current* system.
  mc::EngineOptions options = base;
  options.max_steps = 1;
  options.lemmas.clear();
  options.pdr_candidate_lemmas.clear();
  const auto engine = mc::make_engine(mc::EngineKind::KInduction, ts, options);
  return engine->prove_all(goals);
}

std::vector<ir::NodeRef> surviving_clauses(const ir::TransitionSystem& ts,
                                           const CacheEntry& entry) {
  std::vector<ir::NodeRef> survivors;
  survivors.reserve(entry.clauses.size());
  for (const auto& clause : entry.clauses) {
    const ir::NodeRef expr = clause_in(ts, clause);
    if (expr != nullptr) survivors.push_back(expr);
  }
  return survivors;
}

}  // namespace genfv::serve
