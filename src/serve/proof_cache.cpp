#include "serve/proof_cache.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "mc/unroller.hpp"
#include "sat/solver.hpp"
#include "serve/json.hpp"
#include "util/files.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
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
    try {
      auto entry =
          std::make_shared<const CacheEntry>(parse_entry(util::read_file(dirent.path())));
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

// An entry file is one JSON object (docs/serve.md). Hashes are 16-digit hex
// strings, since a JSON number (a double) cannot hold 64 bits exactly.
namespace {

constexpr const char* kEntryFormat = "genfv-proof-cache 2";

[[noreturn]] void reject(const std::string& what) { throw ParseError("pcache", what); }

const Json& member(const Json& object, const char* key) {
  const Json* value = object.get(key);
  if (value == nullptr) reject(std::string("missing field '") + key + "'");
  return *value;
}

const std::string& string_of(const Json& value, const char* what) {
  if (!value.is_string()) reject(std::string(what) + " must be a string");
  return value.as_string();
}

const JsonArray& array_of(const Json& value, const char* what) {
  if (!value.is_array()) reject(std::string(what) + " must be an array");
  return value.as_array();
}

std::uint64_t whole(const Json& value, std::uint64_t lo, std::uint64_t hi, const char* what) {
  const double n = value.is_number() ? value.as_number() : -1.0;
  if (n != std::floor(n) || n < static_cast<double>(lo) || n > static_cast<double>(hi)) {
    reject(std::string(what) + " must be a whole number in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
  }
  return static_cast<std::uint64_t>(n);
}

std::uint64_t hash_of(const Json& value, const char* what) {
  std::uint64_t hash = 0;
  const std::string& text = string_of(value, what);
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, hash, 16);
  if (text.size() != 16 || ec != std::errc() || stop != end) {
    reject(std::string(what) + " must be a 16-digit hex string");
  }
  return hash;
}

}  // namespace

std::string ProofCache::render_entry(const CacheEntry& entry) {
  JsonArray states;
  for (const ir::StateSig& sig : entry.state_sigs) {
    states.emplace_back(JsonArray{static_cast<int>(sig.width), hex64(sig.sig)});
  }
  JsonArray clauses;
  for (const mc::pdr::Cube& cube : entry.clauses) {
    JsonArray lits;
    for (const mc::pdr::StateLit& lit : cube) {
      lits.emplace_back(JsonArray{static_cast<std::uint64_t>(lit.state),
                                  static_cast<std::uint64_t>(lit.bit), lit.negated});
    }
    clauses.emplace_back(std::move(lits));
  }
  const Json json(JsonObject{{"format", kEntryFormat},
                             {"design", entry.design},
                             {"sys", hex64(entry.sys_hash)},
                             {"prop", hex64(entry.prop_hash)},
                             {"depth", static_cast<std::uint64_t>(entry.depth)},
                             {"states", std::move(states)},
                             {"clauses", std::move(clauses)}});
  return json.dump() + "\n";
}

CacheEntry ProofCache::parse_entry(const std::string& text) {
  Json json;
  try {
    json = Json::parse(text);
  } catch (const ParseError& e) {
    reject(e.what());
  }
  if (!json.is_object()) reject("an entry must be a JSON object");
  if (string_of(member(json, "format"), "format") != kEntryFormat) {
    reject(std::string("format must be \"") + kEntryFormat + "\"");
  }

  constexpr std::uint64_t kMaxIndex = UINT32_MAX;
  CacheEntry entry;
  entry.design = string_of(member(json, "design"), "design");
  entry.sys_hash = hash_of(member(json, "sys"), "sys");
  entry.prop_hash = hash_of(member(json, "prop"), "prop");
  entry.depth = whole(member(json, "depth"), 0, kMaxIndex, "depth");
  for (const Json& state : array_of(member(json, "states"), "states")) {
    const JsonArray& pair = array_of(state, "a state signature");
    if (pair.size() != 2) reject("a state signature must be [width, \"hash\"]");
    entry.state_sigs.push_back(ir::StateSig{
        static_cast<unsigned>(whole(pair[0], 1, 64, "a state width")),
        hash_of(pair[1], "a state hash")});
  }
  for (const Json& clause : array_of(member(json, "clauses"), "clauses")) {
    mc::pdr::Cube cube;
    for (const Json& lit : array_of(clause, "a clause")) {
      const JsonArray& triple = array_of(lit, "a literal");
      if (triple.size() != 3 || !triple[2].is_bool()) {
        reject("a literal must be [state, bit, negated]");
      }
      cube.push_back(mc::pdr::StateLit{
          static_cast<std::uint32_t>(whole(triple[0], 0, kMaxIndex, "a literal's state")),
          static_cast<std::uint32_t>(whole(triple[1], 0, kMaxIndex, "a literal's bit")),
          triple[2].as_bool()});
    }
    if (cube.empty()) reject("empty clause");
    entry.clauses.push_back(std::move(cube));
  }
  return entry;
}

mc::EngineResult recertify(const ir::TransitionSystem& ts,
                           const std::vector<ir::NodeRef>& targets,
                           const CacheEntry& entry, const mc::EngineOptions& base) {
  util::Stopwatch watch;
  mc::EngineResult result;
  std::vector<ir::NodeRef> clauses;
  clauses.reserve(entry.clauses.size());
  for (const auto& clause : entry.clauses) {
    const ir::NodeRef expr = clause_in(ts, clause);
    // The clause names a state this system does not have: the entry cannot
    // certify here, report the refutation without burning SAT time.
    if (expr == nullptr) return result;
    clauses.push_back(expr);
  }
  const ir::NodeRef prop = mc::conjoin_properties(ts, targets);

  sat::Solver init_solver;
  sat::Solver step_solver;
  for (sat::Solver* solver : {&init_solver, &step_solver}) {
    solver->set_conflict_budget(base.conflict_budget);
    solver->set_stop_flag(base.stop.get());
  }
  // Any answer but UNSAT — a model, a spent budget, the stop flag — leaves
  // the verdict Unknown.
  const auto finish = [&](bool proven) {
    if (proven) result.verdict = mc::Verdict::Proven;
    result.depth = 1;
    result.stats.absorb(init_solver);
    result.stats.absorb(step_solver);
    result.stats.seconds = watch.seconds();
    return result;
  };
  const auto unsat = [](sat::Solver& solver, sat::Lit bad) {
    return solver.solve({bad}) == sat::LBool::False;
  };

  // Initiation: init ⊨ Inv ∧ P.
  mc::Unroller init(ts, init_solver, mc::FrameZero::Init);
  std::vector<ir::NodeRef> goals = clauses;
  goals.push_back(prop);
  if (!unsat(init_solver, ~init.lit_at(mc::conjoin_properties(ts, goals), 0))) {
    return finish(false);
  }

  // Consecution, one clause at a time on one incremental solver:
  // Inv ∧ P ∧ T ⊨ c′ for every clause c, then Inv ∧ P ∧ T ⊨ P′. A clause
  // proven at frame 1 is implied by the solver's formula, so adding it
  // changes no later answer; it hands the later queries Inv′ as facts.
  mc::Unroller step(ts, step_solver);
  step.extend_to(1);
  for (const ir::NodeRef clause : clauses) step.assert_at(clause, 0);
  step.assert_at(prop, 0);
  for (const ir::NodeRef clause : clauses) {
    const sat::Lit next = step.lit_at(clause, 1);
    if (!unsat(step_solver, ~next)) return finish(false);
    step_solver.add_clause(next);
  }
  if (!unsat(step_solver, ~step.lit_at(prop, 1))) return finish(false);
  return finish(true);
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
