#include "mc/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "ir/clone.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"
#include "util/thread_safety.hpp"

namespace genfv::mc {

namespace {

bool conclusive(Verdict v) noexcept { return v != Verdict::Unknown; }

/// Span/thread names must be immortal strings (trace events store raw
/// pointers), so members map to literals rather than to_string() copies.
const char* member_span_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::Bmc: return "member:bmc";
    case EngineKind::KInduction: return "member:k-induction";
    case EngineKind::Pdr: return "member:pdr";
    case EngineKind::Portfolio: break;  // never a member (ctor rejects it)
  }
  return "member:?";
}

/// Rebuild a trace produced over a clone against the original system. Trace
/// frames bind only Input/State leaves, which the clone maps one-to-one.
sim::Trace translate_trace(const sim::Trace& trace, ir::SystemClone& clone,
                           const ir::TransitionSystem& original) {
  sim::Trace out(&original);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    sim::Assignment env;
    env.reserve(trace.frame(i).size());
    for (const auto& [node, value] : trace.frame(i)) {
      env.emplace(clone.to_original(node), value);
    }
    out.append(std::move(env));
  }
  return out;
}

}  // namespace

PortfolioEngine::PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {
  members_ = options_.portfolio_engines;
  if (members_.empty()) {
    members_ = {EngineKind::Bmc, EngineKind::KInduction, EngineKind::Pdr};
  }
  for (const EngineKind kind : members_) {
    if (kind == EngineKind::Portfolio) {
      throw UsageError("portfolio cannot contain itself as a member");
    }
  }
}

EngineResult PortfolioEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  if (options_.max_steps == 0) {
    // A zero step budget buys no exploration in any member. Report Unknown
    // uniformly instead of racing three no-op engines.
    EngineResult out;
    for (const EngineKind kind : members_) {
      EngineBreakdown b;
      b.engine = to_string(kind);
      b.note = "zero step budget";
      out.breakdown.push_back(std::move(b));
    }
    return out;
  }
  return run_threaded(properties);
}

namespace {

/// Member engines get the portfolio's options wholesale — copying fields one
/// by one silently dropped every knob added after the copy was written. Only
/// the genuinely per-member fields are overridden afterwards.
EngineOptions member_options(const EngineOptions& portfolio) {
  EngineOptions opts = portfolio;
  opts.portfolio_engines.clear();  // members never recurse into a portfolio
  return opts;
}

}  // namespace

EngineResult PortfolioEngine::run_threaded(const std::vector<ir::NodeRef>& properties) {
  util::Stopwatch watch;
  const std::size_t n = members_.size();

  // Clone the system once per member and translate every input expression —
  // all on this thread, before any worker exists (NodeManager is not
  // thread-safe; each worker then touches only its own clone).
  std::vector<std::unique_ptr<ir::SystemClone>> clones;
  std::vector<std::vector<ir::NodeRef>> member_props(n);
  std::vector<std::vector<ir::NodeRef>> member_lemmas(n);
  std::vector<std::vector<ir::NodeRef>> member_candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    clones.push_back(std::make_unique<ir::SystemClone>(ts_));
    for (const ir::NodeRef p : properties) {
      member_props[i].push_back(clones[i]->to_clone(p));
    }
    for (const ir::NodeRef l : options_.lemmas) {
      member_lemmas[i].push_back(clones[i]->to_clone(l));
    }
    for (const ir::NodeRef c : options_.pdr_candidate_lemmas) {
      member_candidates[i].push_back(clones[i]->to_clone(c));
    }
  }

  // Shared race state. The first conclusive member records itself as the
  // winner and raises `cancel`, which every other member's engine polls.
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  struct RaceState {
    explicit RaceState(std::size_t members) {
      util::MutexLock lock(mu);
      results.resize(members);
      notes.resize(members);
    }
    util::Mutex mu{"mc.portfolio"};
    util::CondVar cv;
    std::size_t done GENFV_GUARDED_BY(mu) = 0;
    std::ptrdiff_t winner GENFV_GUARDED_BY(mu) = -1;
    std::vector<EngineResult> results GENFV_GUARDED_BY(mu);
    std::vector<std::string> notes GENFV_GUARDED_BY(mu);
  };
  RaceState race(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers.emplace_back([&, i] {
      if (util::tracing_on()) {
        util::set_trace_thread_name(std::string("portfolio-") + to_string(members_[i]));
      }
      GENFV_TRACE_SPAN("portfolio", member_span_name(members_[i]));
      EngineResult r;
      std::string note;
      try {
        EngineOptions opts = member_options(options_);
        opts.lemmas = member_lemmas[i];  // translated into this member's clone
        opts.pdr_candidate_lemmas = member_candidates[i];
        opts.stop = cancel;
        auto engine = make_engine(members_[i], clones[i]->system(), opts);
        r = engine->prove_all(member_props[i]);
      } catch (const std::exception& e) {
        // Anything escaping the thread body would std::terminate the whole
        // process; degrade the member to Unknown instead. Covers UsageError
        // (e.g. PDR rejecting input-dependent init values) as well as
        // resource failures like std::bad_alloc from a deep unrolling.
        note = e.what();
      }
      util::MutexLock lock(race.mu);
      race.results[i] = std::move(r);
      race.notes[i] = std::move(note);
      if (conclusive(race.results[i].verdict) && race.winner < 0) {
        race.winner = static_cast<std::ptrdiff_t>(i);
        cancel->store(true, std::memory_order_relaxed);
        GENFV_TRACE_INSTANT("portfolio", "winner");
      }
      ++race.done;
      race.cv.notify_all();
    });
  }

  // Wait for everyone (losers exit quickly once `cancel` is up), forwarding
  // an external cancellation request into the members' flag.
  {
    util::MutexLock lock(race.mu);
    while (race.done < n) {
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        cancel->store(true, std::memory_order_relaxed);
      }
      race.cv.wait_for(race.mu, std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : workers) t.join();

  // Every worker has joined; move the race outputs into locals so the merge
  // below reads plain single-threaded data (and needs no lock).
  std::vector<EngineResult> results;
  std::vector<std::string> notes;
  std::ptrdiff_t winner = -1;
  {
    util::MutexLock lock(race.mu);
    results = std::move(race.results);
    notes = std::move(race.notes);
    winner = race.winner;
  }

  // Merge — single-threaded again, so translating back into the original
  // system's NodeManager is safe.
  EngineResult out;
  for (std::size_t i = 0; i < n; ++i) {
    EngineBreakdown b;
    b.engine = to_string(members_[i]);
    b.verdict = results[i].verdict;
    b.depth = results[i].depth;
    b.stats = results[i].stats;
    b.note = notes[i];
    out.stats += b.stats;
    out.breakdown.push_back(std::move(b));
  }
  if (winner >= 0) {
    const std::size_t w = static_cast<std::size_t>(winner);
    EngineResult& won = results[w];
    out.verdict = won.verdict;
    out.depth = won.depth;
    out.winner = to_string(members_[w]);
    if (won.cex.has_value()) {
      out.cex = translate_trace(*won.cex, *clones[w], ts_);
    }
    for (const ir::NodeRef clause : won.invariant) {
      out.invariant.push_back(clones[w]->to_original(clause));
    }
  } else {
    out.verdict = Verdict::Unknown;
    for (std::size_t i = 0; i < n; ++i) {
      out.depth = std::max(out.depth, results[i].depth);
      // Keep the repair loop fed: forward a step CEX if some member (in
      // practice k-induction) produced one before stalling.
      if (!out.step_cex.has_value() && results[i].step_cex.has_value()) {
        out.step_cex = translate_trace(*results[i].step_cex, *clones[i], ts_);
      }
    }
  }
  out.stats.seconds = watch.seconds();
  return out;
}

}  // namespace genfv::mc
