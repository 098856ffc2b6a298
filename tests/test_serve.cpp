/// Server-level tests for the resident verification daemon (docs/serve.md):
/// JSON protocol round-trips and the full malformed-request table, worker-pool
/// saturation / cancellation / deadlines / graceful drain, proof-cache
/// soundness (independent re-certification, corruption rejection, persistence
/// across processes), the cold-vs-warm zoo sweep, the end-to-end
/// incremental-reverification path, and a concurrent-client stress test that
/// rides the TSan `*MultiWorker*` CI filter.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "designs/design.hpp"
#include "flow/session.hpp"
#include "ir/struct_hash.hpp"
#include "mc/engine.hpp"
#include "mc/exchange.hpp"
#include "serve/json.hpp"
#include "serve/proof_cache.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"
#include "util/status.hpp"
#include "util/thread_safety.hpp"

namespace genfv::serve {
namespace {

using namespace std::chrono_literals;

// --- helpers -----------------------------------------------------------------

/// Thread-safe response collector usable as a Server sink from any thread.
class ResponseLog {
 public:
  Server::Sink sink() {
    return [this](const std::string& line) { push(line); };
  }

  void push(const std::string& line) {
    Json parsed = Json::parse(line);
    util::MutexLock lock(mu_);
    responses_.push_back(std::move(parsed));
    cv_.notify_all();
  }

  /// The response whose "id" dumps to `id` (e.g. "1" or "\"job\"").
  /// Fails the test and returns null on timeout.
  Json wait_for(const std::string& id, std::chrono::milliseconds timeout = 120s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    util::MutexLock lock(mu_);
    for (;;) {
      for (const Json& response : responses_) {
        const Json* rid = response.get("id");
        if (rid != nullptr && rid->dump() == id) return response;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        ADD_FAILURE() << "timed out waiting for a response with id " << id;
        return Json();
      }
      cv_.wait_for(mu_, deadline - now);
    }
  }

  std::size_t size() const {
    util::MutexLock lock(mu_);
    return responses_.size();
  }

  Json last() const {
    util::MutexLock lock(mu_);
    return responses_.empty() ? Json() : responses_.back();
  }

 private:
  mutable util::Mutex mu_{"test.response_log"};
  util::CondVar cv_;
  std::vector<Json> responses_ GENFV_GUARDED_BY(mu_);
};

double number_field(const Json& response, const std::string& key) {
  const Json* field = response.get(key);
  EXPECT_NE(field, nullptr) << "missing '" << key << "' in " << response.dump();
  if (field == nullptr || !field->is_number()) return -1.0;
  return field->as_number();
}

std::string string_field(const Json& response, const std::string& key) {
  const Json* field = response.get(key);
  EXPECT_NE(field, nullptr) << "missing '" << key << "' in " << response.dump();
  if (field == nullptr || !field->is_string()) return "";
  return field->as_string();
}

bool bool_field(const Json& response, const std::string& key) {
  const Json* field = response.get(key);
  EXPECT_NE(field, nullptr) << "missing '" << key << "' in " << response.dump();
  if (field == nullptr || !field->is_bool()) return false;
  return field->as_bool();
}

/// mkdtemp-backed scratch directory, removed on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "genfv_serve_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    }
    path_ = pattern;
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// --- JSON layer --------------------------------------------------------------

TEST(ServeJson, RoundTripsValuesAndPreservesIntegerRendering) {
  const std::string text =
      R"({"a":1,"b":[true,null,"x\ny"],"c":-2.5,"d":"é","e":{}})";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.dump(), "{\"a\":1,\"b\":[true,null,\"x\\ny\"],\"c\":-2.5,"
                           "\"d\":\"\xc3\xa9\",\"e\":{}}");
  EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump());
  // Integral doubles render without a fraction; true fractions keep theirs.
  EXPECT_EQ(Json(42.0).dump(), "42");
  EXPECT_EQ(Json(std::uint64_t{0}).dump(), "0");
}

TEST(ServeJson, MalformedInputThrowsLocatedParseError) {
  const char* broken[] = {
      "",  "not json", "[1,", "{\"a\"}", "{\"a\":}", "\"unterminated",
      "01", "{\"a\":1,}", "[1] trailing", "\"bad \\q escape\"",
  };
  for (const char* text : broken) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "parse accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("json:byte"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeJson, NestingDeeperThanTheLimitIsALocatedParseError) {
  // The parser recurses once per level: without a limit a line of '['
  // characters overflows the stack instead of failing the parse.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(Json::parse(nested(Json::kMaxDepth)).dump(), nested(Json::kMaxDepth));
  for (const std::string& text :
       {nested(Json::kMaxDepth + 1), std::string(1000000, '['),
        std::string(Json::kMaxDepth, '[') + "{\"a\":1}"}) {
    try {
      Json::parse(text);
      ADD_FAILURE() << "parse accepted " << text.size() << " bytes of nesting";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("json:byte " + std::to_string(Json::kMaxDepth)), std::string::npos)
          << what;
      EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
    }
  }
}

// --- protocol ----------------------------------------------------------------

TEST(ServeProtocol, EveryMalformedRequestClassIsLocated) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  const struct {
    const char* line;
    const char* error;
  } table[] = {
      {"not json", "bad-json"},
      {"[1,2]", "not-an-object"},
      {R"({"op":"status"})", "missing-id"},
      {R"({"id":[1],"op":"status"})", "bad-id"},
      {R"({"id":1})", "missing-op"},
      {R"({"id":1,"op":7})", "missing-op"},
      {R"({"id":1,"op":"zap"})", "unknown-op"},
      {R"({"id":1,"op":"cancel"})", "bad-field"},
      {R"({"id":1,"op":"verify"})", "missing-source"},
      {R"({"id":1,"op":"verify","design":"sequencer","rtl":"module m; endmodule"})",
       "conflicting-source"},
      {R"({"id":1,"op":"verify","design":"no_such_design"})", "unknown-design"},
      {R"({"id":1,"op":"verify","design":17})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","engine":"magic"})",
       "unknown-engine"},
      {R"({"id":1,"op":"verify","design":"sequencer","max_k":-1})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","deadline_ms":0})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","cache":"yes"})", "bad-field"},
      {R"({"id":1,"op":"verify","rtl":"module m; endmodule","properties":7})",
       "bad-field"},
      {R"({"id":1,"op":"verify","file":"/nonexistent/design.aag"})", "bad-file"},
      {R"({"id":1,"op":"verify","rtl":"garbage ("})", "bad-rtl"},
      {R"({"id":1,"op":"verify","design":"sequencer","property":"no_such_prop"})",
       "unknown-property"},
  };

  for (const auto& row : table) {
    const std::size_t before = log.size();
    server.handle_line(row.line, log.sink());
    ASSERT_EQ(log.size(), before + 1) << "no synchronous answer for: " << row.line;
    const Json response = log.last();
    EXPECT_FALSE(bool_field(response, "ok")) << row.line;
    EXPECT_EQ(string_field(response, "error"), row.error) << row.line;
    EXPECT_FALSE(string_field(response, "message").empty()) << row.line;
  }

  // The RTL source with no properties elaborates but has nothing to prove.
  Json request;
  request.set("id", "empty");
  request.set("op", "verify");
  request.set("rtl",
              "module m (input clk, rst, output logic q);\n"
              "  always_ff @(posedge clk) begin\n"
              "    if (rst) q <= 1'b0; else q <= !q;\n"
              "  end\nendmodule\n");
  server.handle_line(request.dump(), log.sink());
  EXPECT_EQ(string_field(log.last(), "error"), "no-targets");

  // Blank lines are keep-alives, not errors.
  const std::size_t before = log.size();
  server.handle_line("   \t", log.sink());
  EXPECT_EQ(log.size(), before);
}

TEST(ServeProtocol, TooDeepRequestIsAnErrorAndTheServerKeepsServing) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;
  Server server(options);

  server.handle_line(std::string(1000000, '['), log.sink());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(bool_field(log.last(), "ok"));
  EXPECT_EQ(string_field(log.last(), "error"), "bad-json");
  EXPECT_NE(string_field(log.last(), "message").find("nesting deeper than"),
            std::string::npos);

  server.handle_line(R"({"id":"after","op":"status"})", log.sink());
  EXPECT_TRUE(bool_field(log.wait_for("\"after\""), "ok"));
}

TEST(ServeProtocol, VerifyStatusShutdownRoundTrip) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  server.handle_line(R"({"id":"s0","op":"status"})", log.sink());
  const Json s0 = log.wait_for("\"s0\"");
  EXPECT_TRUE(bool_field(s0, "ok"));
  EXPECT_EQ(number_field(s0, "workers"), 1.0);
  EXPECT_EQ(number_field(s0, "completed"), 0.0);
  EXPECT_FALSE(bool_field(s0, "draining"));

  // Cold run: a miss that populates the cache.
  server.handle_line(
      R"({"id":1,"op":"verify","design":"sequencer","engine":"pdr","max_k":16})",
      log.sink());
  const Json cold = log.wait_for("1");
  EXPECT_TRUE(bool_field(cold, "ok"));
  EXPECT_EQ(string_field(cold, "verdict"), "proven");
  EXPECT_EQ(string_field(cold, "engine"), "pdr");
  EXPECT_EQ(string_field(cold, "cache"), "miss");
  const double cold_depth = number_field(cold, "depth");
  EXPECT_GT(cold_depth, 0.0);

  // Exact resubmission: served from the cache behind a re-certification.
  server.handle_line(
      R"({"id":2,"op":"verify","design":"sequencer","engine":"pdr","max_k":16})",
      log.sink());
  const Json warm = log.wait_for("2");
  EXPECT_EQ(string_field(warm, "verdict"), "proven");
  EXPECT_EQ(string_field(warm, "cache"), "hit");
  EXPECT_EQ(string_field(warm, "engine"), "cache+recertify");
  EXPECT_EQ(number_field(warm, "depth"), cold_depth);
  // The re-certification is one induction check, not a full proof.
  EXPECT_LT(number_field(warm, "sat_calls"), number_field(cold, "sat_calls"));

  // Opting out of the cache is per-request.
  server.handle_line(
      R"({"id":3,"op":"verify","design":"sequencer","cache":false,"max_k":16})",
      log.sink());
  EXPECT_EQ(string_field(log.wait_for("3"), "cache"), "off");

  // Cancelling a job nobody submitted is answered, not ignored.
  server.handle_line(R"({"id":4,"op":"cancel","job":42})", log.sink());
  const Json cancel = log.wait_for("4");
  EXPECT_TRUE(bool_field(cancel, "ok"));
  EXPECT_FALSE(bool_field(cancel, "cancelled"));

  server.handle_line(R"({"id":"s1","op":"status"})", log.sink());
  const Json s1 = log.wait_for("\"s1\"");
  // A job's response is sent before the worker retires it, so "completed"
  // may lag the last response by one; "answered" never lags a response we
  // already hold.
  EXPECT_GE(number_field(s1, "completed"), 2.0);
  EXPECT_EQ(number_field(s1, "answered"), 3.0);
  EXPECT_EQ(number_field(s1, "cache_hits"), 1.0);
  EXPECT_EQ(number_field(s1, "cache_misses"), 1.0);
  EXPECT_EQ(number_field(s1, "cache_size"), 1.0);

  server.handle_line(R"({"id":"bye","op":"shutdown"})", log.sink());
  const Json bye = log.wait_for("\"bye\"");
  EXPECT_TRUE(bool_field(bye, "draining"));

  // Draining servers refuse new verify jobs with a stable error class.
  server.handle_line(R"({"id":5,"op":"verify","design":"sequencer"})", log.sink());
  EXPECT_EQ(string_field(log.wait_for("5"), "error"), "server-draining");
}

TEST(ServeProtocol, RtlSourceWithNamedPropertyFilter) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  const designs::DesignInfo& info = designs::design_by_name("sequencer");
  Json request;
  request.set("id", "rtl1");
  request.set("op", "verify");
  request.set("rtl", info.rtl);
  JsonArray properties;
  for (const flow::TargetSpec& target : info.targets) {
    Json p;
    p.set("name", target.name);
    p.set("sva", target.sva);
    properties.push_back(p);
  }
  request.set("properties", Json(properties));
  request.set("property", info.targets.front().name);
  request.set("engine", "pdr");
  request.set("max_k", 16);
  server.handle_line(request.dump(), log.sink());

  const Json response = log.wait_for("\"rtl1\"");
  EXPECT_TRUE(bool_field(response, "ok"));
  EXPECT_EQ(string_field(response, "verdict"), "proven");
}

TEST(ServeProtocol, SameRtlDifferentPropertySetsDoNotShareSessions) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  const designs::DesignInfo& info = designs::design_by_name("sequencer");
  Json request;
  request.set("id", "withprops");
  request.set("op", "verify");
  request.set("rtl", info.rtl);
  JsonArray properties;
  for (const flow::TargetSpec& target : info.targets) {
    Json p;
    p.set("name", target.name);
    p.set("sva", target.sva);
    properties.push_back(p);
  }
  request.set("properties", Json(properties));
  request.set("max_k", 16);
  server.handle_line(request.dump(), log.sink());
  EXPECT_EQ(string_field(log.wait_for("\"withprops\""), "verdict"), "proven");

  // Same RTL, no property list: the idle session from the first request
  // (elaborated *with* its properties) must not be checked out — this
  // request elaborates fresh and fails with no-targets instead of
  // answering for a property set it never asked about.
  Json bare;
  bare.set("id", "noprops");
  bare.set("op", "verify");
  bare.set("rtl", info.rtl);
  server.handle_line(bare.dump(), log.sink());
  const Json without = log.wait_for("\"noprops\"");
  EXPECT_FALSE(bool_field(without, "ok"));
  EXPECT_EQ(string_field(without, "error"), "no-targets");
}

TEST(ServeProtocol, EditedFileOnDiskIsReElaborated) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/latch.aag";
  // Safe: the latch holds 0 forever and the bad literal is the latch itself.
  std::ofstream(path) << "aag 1 0 1 0 0 1\n2 2\n2\n";

  ServerOptions options;
  options.workers = 1;
  options.cache = false;  // isolate session reuse from the proof cache
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  Json safe;
  safe.set("id", "safe");
  safe.set("op", "verify");
  safe.set("file", path);
  safe.set("max_k", 4);
  server.handle_line(safe.dump(), log.sink());
  EXPECT_EQ(string_field(log.wait_for("\"safe\""), "verdict"), "proven");

  // Edit the file in place — the regression-farm loop this server exists
  // for. The bad literal is now the latch's negation, which holds at init;
  // the resubmission must elaborate the new content, not reuse the stale
  // session of the old one.
  std::this_thread::sleep_for(10ms);
  std::ofstream(path, std::ios::trunc)
      << "aag 1 0 1 0 0 1\n2 2\n3\nc\nedited\n";
  Json edited;
  edited.set("id", "edited");
  edited.set("op", "verify");
  edited.set("file", path);
  edited.set("max_k", 4);
  server.handle_line(edited.dump(), log.sink());
  EXPECT_EQ(string_field(log.wait_for("\"edited\""), "verdict"), "falsified");
}

// --- worker pool -------------------------------------------------------------

TEST(ServePool, SaturationRunsEveryJob) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(pool.submit("job" + std::to_string(i), 0.0,
                            [&ran](JobControl&) { ran.fetch_add(1); }));
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 16);
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.active, 0u);
  // A drained pool refuses new work.
  EXPECT_FALSE(pool.submit("late", 0.0, [](JobControl&) {}));
}

TEST(ServePool, CancelledWhileQueuedRunsWithTheStopFlagPreSet) {
  WorkerPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<bool> saw_stop{false};
  StopReason seen = StopReason::None;
  pool.submit("blocker", 0.0, [&release](JobControl&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  });
  pool.submit("victim", 0.0, [&saw_stop, &seen](JobControl& control) {
    saw_stop.store(control.stopped());
    seen = control.stop_reason();
  });
  EXPECT_TRUE(pool.cancel("victim"));
  EXPECT_FALSE(pool.cancel("no_such_job"));
  release.store(true);
  pool.drain();
  EXPECT_TRUE(saw_stop.load());
  EXPECT_EQ(seen, StopReason::Cancel);
  EXPECT_EQ(pool.stats().cancelled, 1u);
}

TEST(ServePool, CancelStopsAnActiveJob) {
  WorkerPool pool(1);
  std::atomic<bool> started{false};
  StopReason seen = StopReason::None;
  pool.submit("spinner", 0.0, [&started, &seen](JobControl& control) {
    started.store(true);
    while (!control.stopped()) std::this_thread::sleep_for(1ms);
    seen = control.stop_reason();
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(pool.cancel("spinner"));
  pool.drain();
  EXPECT_EQ(seen, StopReason::Cancel);
}

TEST(ServePool, DeadlineStopsARunawayJob) {
  WorkerPool pool(1);
  StopReason seen = StopReason::None;
  pool.submit("runaway", 25.0, [&seen](JobControl& control) {
    while (!control.stopped()) std::this_thread::sleep_for(1ms);
    seen = control.stop_reason();
  });
  pool.drain();
  EXPECT_EQ(seen, StopReason::Deadline);
  EXPECT_EQ(pool.stats().deadlined, 1u);
}

TEST(ServePool, FirstStopReasonWins) {
  JobControl control;
  EXPECT_FALSE(control.stopped());
  control.request_stop(StopReason::Cancel);
  control.request_stop(StopReason::Deadline);
  EXPECT_TRUE(control.stopped());
  EXPECT_EQ(control.stop_reason(), StopReason::Cancel);
}

TEST(ServeProtocol, ShutdownDrainsInFlightJobs) {
  ServerOptions options;
  options.workers = 2;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  for (int i = 0; i < 4; ++i) {
    Json request;
    request.set("id", i);
    request.set("op", "verify");
    request.set("design", "sequencer");
    request.set("max_k", 16);
    server.handle_line(request.dump(), log.sink());
  }
  server.handle_line(R"({"id":"bye","op":"shutdown"})", log.sink());

  // The shutdown ack arrives after the drain returns, and every submitted
  // job still got its own response.
  log.wait_for("\"bye\"");
  for (int i = 0; i < 4; ++i) {
    const Json response = log.wait_for(std::to_string(i), 5s);
    EXPECT_TRUE(bool_field(response, "ok"));
  }
}

// --- proof cache -------------------------------------------------------------

/// One-state micro system: c is 1-bit, starts at 1 and holds its value.
/// `c` itself is an inductive invariant; "c is 0" is refutable at init.
ir::TransitionSystem holding_bit_system() {
  ir::TransitionSystem ts;
  const ir::NodeRef c = ts.add_state("c", 1);
  ts.set_init(c, ts.nm().mk_true());
  ts.set_next(c, c);
  return ts;
}

/// ExchangedLit literals describe the blocked *cube*; the clause is its
/// negation, so a negated cube literal materializes as the positive bit.
mc::ExchangedClause unit_clause(std::size_t state, unsigned bit, bool negated) {
  mc::ExchangedClause clause;
  clause.lits.push_back(mc::ExchangedLit{state, bit, negated});
  return clause;
}

TEST(ServeCache, RecertifyAcceptsATrueInvariant) {
  const ir::TransitionSystem ts = holding_bit_system();
  CacheEntry entry;
  entry.depth = 1;
  entry.clauses.push_back(unit_clause(0, 0, true));  // clause: c
  const std::vector<ir::NodeRef> targets{ts.states()[0].var};
  const mc::EngineResult result = recertify(ts, targets, entry, mc::EngineOptions{});
  EXPECT_EQ(result.verdict, mc::Verdict::Proven);
  EXPECT_GT(result.stats.sat_calls, 0u);  // an actual SAT proof, not trust
}

TEST(ServeCache, RecertifyRejectsANonInductiveClause) {
  // Blinker: c starts at 1 and toggles, so "c is always 1" is not inductive.
  ir::TransitionSystem ts;
  const ir::NodeRef c = ts.add_state("c", 1);
  ts.set_init(c, ts.nm().mk_true());
  ts.set_next(c, ts.nm().mk_not(c));
  CacheEntry entry;
  entry.clauses.push_back(unit_clause(0, 0, true));  // clause: c
  const std::vector<ir::NodeRef> targets{ts.nm().mk_true()};
  const mc::EngineResult result = recertify(ts, targets, entry, mc::EngineOptions{});
  EXPECT_NE(result.verdict, mc::Verdict::Proven);
}

TEST(ServeCache, RecertifyFailsClosedOnClausesThatDoNotFit) {
  const ir::TransitionSystem ts = holding_bit_system();
  CacheEntry entry;
  entry.clauses.push_back(unit_clause(0, 0, true));   // clause: c — fits
  entry.clauses.push_back(unit_clause(7, 0, true));   // no such state
  const std::vector<ir::NodeRef> targets{ts.states()[0].var};
  const mc::EngineResult result = recertify(ts, targets, entry, mc::EngineOptions{});
  EXPECT_NE(result.verdict, mc::Verdict::Proven);
  EXPECT_EQ(result.stats.sat_calls, 0u);  // rejected before any solving
  // The near-miss payload keeps the fitting subset instead.
  EXPECT_EQ(surviving_clauses(ts, entry).size(), 1u);
}

TEST(ServeCache, StoreRequiresAProvenInvariant) {
  ProofCache cache(ProofCache::Options{});
  const ir::TransitionSystem ts = holding_bit_system();
  const std::vector<ir::NodeRef> targets{ts.states()[0].var};
  mc::EngineResult unknown;
  EXPECT_FALSE(cache.store("x", ts, targets, unknown));
  mc::EngineResult proven_empty;
  proven_empty.verdict = mc::Verdict::Proven;
  EXPECT_FALSE(cache.store("x", ts, targets, proven_empty));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeCache, ExactHitIsRecertifiedAndTamperingIsRejected) {
  flow::EngineSession session(designs::make_task("sequencer"));
  mc::EngineOptions options;
  options.max_steps = 16;
  const mc::EngineResult cold = session.run_job(mc::EngineKind::Pdr, options);
  ASSERT_EQ(cold.verdict, mc::Verdict::Proven);
  ASSERT_FALSE(cold.invariant.empty());

  const ir::TransitionSystem& ts = session.task().ts;
  const std::vector<ir::NodeRef> targets = session.task().target_exprs();
  ProofCache cache(ProofCache::Options{});
  ASSERT_TRUE(cache.store("sequencer", ts, targets, cold));

  const CacheLookup lookup = cache.lookup(ts, targets);
  ASSERT_EQ(lookup.outcome, CacheOutcome::Exact);
  EXPECT_EQ(lookup.similarity, 1.0);

  // Independent SAT cross-check: the stored invariant re-certifies.
  const mc::EngineResult certified = recertify(ts, targets, *lookup.entry, options);
  EXPECT_EQ(certified.verdict, mc::Verdict::Proven);
  EXPECT_LT(certified.stats.sat_calls, cold.stats.sat_calls);

  // A tampered entry (contradictory clauses) fails the same cross-check —
  // the cache layer never takes a stored verdict on faith.
  CacheEntry corrupted = *lookup.entry;
  corrupted.clauses.push_back(unit_clause(0, 0, false));
  corrupted.clauses.push_back(unit_clause(0, 0, true));
  const mc::EngineResult rejected = recertify(ts, targets, corrupted, options);
  EXPECT_NE(rejected.verdict, mc::Verdict::Proven);

  // Invalidation drops the entry, so the next lookup is a miss.
  cache.invalidate(lookup.entry->sys_hash, lookup.entry->prop_hash);
  EXPECT_EQ(cache.lookup(ts, targets).outcome, CacheOutcome::Miss);
}

TEST(ServeCache, EntryTextRoundTripsAndEveryCorruptionIsRejected) {
  CacheEntry entry;
  entry.design = "micro";
  entry.sys_hash = 0x0123456789abcdefULL;
  entry.prop_hash = 0xfedcba9876543210ULL;
  entry.depth = 7;
  entry.state_sigs.push_back(ir::StateSig{4, 0x1111222233334444ULL});
  entry.state_sigs.push_back(ir::StateSig{1, 0x5555666677778888ULL});
  entry.clauses.push_back(unit_clause(0, 3, true));
  mc::ExchangedClause wide;
  wide.lits.push_back(mc::ExchangedLit{1, 0, false});
  wide.lits.push_back(mc::ExchangedLit{0, 2, true});
  // Cache entries hold a final invariant, so the format only carries proven
  // clauses; a frame level would not survive the round trip.
  entry.clauses.push_back(wide);

  const std::string text = ProofCache::render_entry(entry);
  const CacheEntry back = ProofCache::parse_entry(text);
  EXPECT_EQ(back.design, entry.design);
  EXPECT_EQ(back.sys_hash, entry.sys_hash);
  EXPECT_EQ(back.prop_hash, entry.prop_hash);
  EXPECT_EQ(back.depth, entry.depth);
  EXPECT_EQ(back.state_sigs, entry.state_sigs);
  ASSERT_EQ(back.clauses.size(), entry.clauses.size());
  for (std::size_t i = 0; i < back.clauses.size(); ++i) {
    EXPECT_EQ(mc::exchange_key(back.clauses[i]), mc::exchange_key(entry.clauses[i]));
  }
  EXPECT_EQ(ProofCache::render_entry(back), text);

  const std::string corruptions[] = {
      "",                                          // empty file
      "# some other format\n",                     // wrong header
      text.substr(0, text.size() / 2),             // truncated
      text + "trailing junk\n",                    // extra content
      [&] {                                        // broken clause literal
        std::string t = text;
        t.replace(t.find("0.3-"), 4, "0.z-");
        return t;
      }(),
      [&] {                                        // count mismatch
        std::string t = text;
        t.replace(t.find("states 2"), 8, "states 3");
        return t;
      }(),
      [&] {                                        // non-hex hash
        std::string t = text;
        t.replace(t.find("0123456789abcdef"), 16, "0123456789abcdeg");
        return t;
      }(),
  };
  for (const std::string& corrupt : corruptions) {
    try {
      ProofCache::parse_entry(corrupt);
      ADD_FAILURE() << "parse_entry accepted a corrupted entry:\n" << corrupt;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("pcache:"), std::string::npos) << e.what();
    }
  }
}

TEST(ServeCache, LoadRejectsCorruptFilesAndKeepsGoodOnes) {
  ScopedTempDir dir;
  CacheEntry entry;
  entry.design = "micro";
  entry.sys_hash = 1;
  entry.prop_hash = 2;
  entry.depth = 1;
  entry.state_sigs.push_back(ir::StateSig{1, 42});
  entry.clauses.push_back(unit_clause(0, 0, false));
  std::ofstream(dir.path() + "/good.pcache") << ProofCache::render_entry(entry);
  std::ofstream(dir.path() + "/bad.pcache") << "# genfv-proof-cache 1\ndesign\n";
  std::ofstream(dir.path() + "/ignored.txt") << "not a cache file";

  ProofCache cache(ProofCache::Options{dir.path(), 0.5});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.rejected_files(), 1u);
}

TEST(ServeCache, PersistsAcrossInstancesAndFreshElaboration) {
  ScopedTempDir dir;
  {
    flow::EngineSession session(designs::make_task("sequencer"));
    mc::EngineOptions options;
    options.max_steps = 16;
    const mc::EngineResult cold = session.run_job(mc::EngineKind::Pdr, options);
    ASSERT_EQ(cold.verdict, mc::Verdict::Proven);
    ProofCache cache(ProofCache::Options{dir.path(), 0.5});
    ASSERT_TRUE(cache.store("sequencer", session.task().ts,
                            session.task().target_exprs(), cold));
  }

  // A new cache instance over the same directory sees the entry, and a
  // freshly elaborated task (new NodeManager, new node ids) still hits it
  // exactly and re-certifies — the key is structural, not identity-based.
  ProofCache reloaded(ProofCache::Options{dir.path(), 0.5});
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.rejected_files(), 0u);

  flow::VerificationTask fresh = designs::make_task("sequencer");
  const std::vector<ir::NodeRef> targets = fresh.target_exprs();
  const CacheLookup lookup = reloaded.lookup(fresh.ts, targets);
  ASSERT_EQ(lookup.outcome, CacheOutcome::Exact);
  const mc::EngineResult certified =
      recertify(fresh.ts, targets, *lookup.entry, mc::EngineOptions{});
  EXPECT_EQ(certified.verdict, mc::Verdict::Proven);
}

TEST(ServeCache, BogusSeedCandidatesNeverChangeTheVerdict) {
  // Seed a run with contradictory candidate clauses: the may-proof
  // discipline must retract them and still prove the design.
  flow::EngineSession session(designs::make_task("sequencer"));
  const ir::TransitionSystem& ts = session.task().ts;

  mc::EngineOptions cold_options;
  cold_options.max_steps = 16;
  const mc::EngineResult cold = session.run_job(mc::EngineKind::Pdr, cold_options);
  ASSERT_EQ(cold.verdict, mc::Verdict::Proven);

  mc::EngineOptions warm_options = cold_options;
  warm_options.pdr_seed_candidates = true;
  const ir::NodeRef bit0 = mc::materialize(unit_clause(0, 0, false), ts);
  const ir::NodeRef not_bit0 = mc::materialize(unit_clause(0, 0, true), ts);
  ASSERT_NE(bit0, nullptr);
  ASSERT_NE(not_bit0, nullptr);
  warm_options.pdr_candidate_lemmas = {bit0, not_bit0};
  const mc::EngineResult warm = session.run_job(mc::EngineKind::Pdr, warm_options);
  // The bogus candidates may cost frames or conflicts, but never the verdict.
  EXPECT_EQ(warm.verdict, cold.verdict);
}

TEST(ServeCache, WarmSeedingKeepsEveryZooVerdict) {
  // Cold-vs-warm sweep over the zoo: seeding a run with its own cached
  // clauses must reproduce the cold verdict everywhere, and actually seed.
  mc::EngineOptions cold_options;
  cold_options.max_steps = 8;
  std::size_t proven = 0;
  for (const designs::DesignInfo& info : designs::all_designs()) {
    flow::EngineSession session(designs::make_task(info.name));
    const mc::EngineResult cold = session.run_job(mc::EngineKind::Pdr, cold_options);
    if (cold.verdict != mc::Verdict::Proven || cold.invariant.empty()) continue;
    ++proven;

    ProofCache cache(ProofCache::Options{});
    const std::vector<ir::NodeRef> targets = session.task().target_exprs();
    ASSERT_TRUE(cache.store(info.name, session.task().ts, targets, cold))
        << info.name;
    const CacheLookup lookup = cache.lookup(session.task().ts, targets);
    ASSERT_EQ(lookup.outcome, CacheOutcome::Exact) << info.name;

    mc::EngineOptions warm_options = cold_options;
    warm_options.pdr_seed_candidates = true;
    warm_options.pdr_candidate_lemmas =
        surviving_clauses(session.task().ts, *lookup.entry);
    ASSERT_FALSE(warm_options.pdr_candidate_lemmas.empty()) << info.name;
    const mc::EngineResult warm = session.run_job(mc::EngineKind::Pdr, warm_options);
    EXPECT_EQ(warm.verdict, cold.verdict) << info.name;
    EXPECT_GT(warm.stats.candidates_seeded, 0u) << info.name;
  }
  // The sweep must not be vacuous.
  EXPECT_GE(proven, 2u);
}

TEST(ServeCache, InterruptedRecertificationNeverDestroysTheEntry) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  server.handle_line(
      R"({"id":"cold","op":"verify","design":"sequencer","max_k":16})",
      log.sink());
  ASSERT_EQ(string_field(log.wait_for("\"cold\""), "verdict"), "proven");
  ASSERT_EQ(server.cache().size(), 1u);

  // Jobs whose deadline trips mid-recertification fail the induction check
  // through the stop flag, not on the merits: an interrupted check is not a
  // refutation and must not invalidate the persisted proof. The deadline
  // spread brackets the sub-millisecond recertification window; whether a
  // given deadline lands while queued, mid-check, or after the hit
  // completes, the entry survives.
  const double deadlines_ms[] = {0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 4.0};
  int i = 0;
  for (const double deadline_ms : deadlines_ms) {
    Json request;
    request.set("id", "d" + std::to_string(i));
    request.set("op", "verify");
    request.set("design", "sequencer");
    request.set("max_k", 16);
    request.set("deadline_ms", deadline_ms);
    server.handle_line(request.dump(), log.sink());
    log.wait_for("\"d" + std::to_string(i) + "\"");
    EXPECT_EQ(server.cache().size(), 1u) << "deadline_ms=" << deadline_ms;
    ++i;
  }

  server.handle_line(
      R"({"id":"warm","op":"verify","design":"sequencer","max_k":16})",
      log.sink());
  const Json warm = log.wait_for("\"warm\"");
  EXPECT_EQ(string_field(warm, "verdict"), "proven");
  EXPECT_EQ(string_field(warm, "cache"), "hit");
}

// --- end-to-end incremental re-verification ----------------------------------

TEST(ServeIncremental, OneExpressionEditWarmStartsFromSurvivingClauses) {
  ServerOptions options;
  options.workers = 1;
  options.near_threshold = 0.4;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  const designs::DesignInfo& info = designs::design_by_name("updown_pair");
  const auto submit = [&](const std::string& id, const std::string& rtl,
                          bool use_cache) {
    Json request;
    request.set("id", id);
    request.set("op", "verify");
    request.set("rtl", rtl);
    JsonArray properties;
    for (const flow::TargetSpec& target : info.targets) {
      Json p;
      p.set("name", target.name);
      p.set("sva", target.sva);
      properties.push_back(p);
    }
    request.set("properties", Json(properties));
    request.set("engine", "pdr");
    request.set("max_k", 32);
    if (!use_cache) request.set("cache", false);
    server.handle_line(request.dump(), log.sink());
    return log.wait_for("\"" + id + "\"");
  };

  // Cold submission populates the cache.
  const Json cold = submit("cold", info.rtl, true);
  ASSERT_EQ(string_field(cold, "verdict"), "proven");
  ASSERT_EQ(string_field(cold, "cache"), "miss");

  // One-expression edit: an unrelated heartbeat register joins the design.
  // The existing registers (and the cached clauses over them) are untouched.
  std::string edited = info.rtl;
  const struct {
    const char* from;
    const char* to;
  } surgery[] = {
      {"output logic [11:0] lead, lag);",
       "output logic [11:0] lead, lag);\n  logic [3:0] beat;"},
      {"lag  <= 12'd0;", "lag  <= 12'd0; beat <= 4'd0;"},
      {"lag  <= lag + 12'd1;", "lag  <= lag + 12'd1; beat <= beat + 4'd1;"},
      {"lag  <= lag - 12'd1;", "lag  <= lag - 12'd1; beat <= beat + 4'd1;"},
  };
  for (const auto& edit : surgery) {
    const std::size_t at = edited.find(edit.from);
    ASSERT_NE(at, std::string::npos) << edit.from;
    edited.replace(at, std::string(edit.from).size(), edit.to);
  }

  // The edited design is a near miss: same verdict, and PDR starts warm
  // from the surviving clauses instead of from scratch.
  const Json warm = submit("warm", edited, true);
  EXPECT_EQ(string_field(warm, "verdict"), "proven");
  EXPECT_EQ(string_field(warm, "cache"), "near");
  EXPECT_GT(number_field(warm, "candidates_seeded"), 0.0);

  // Against a cold run of the same edited design, the warm start saves
  // conflicts (the telemetry counters in the response pin this).
  const Json edited_cold = submit("edited_cold", edited, false);
  ASSERT_EQ(string_field(edited_cold, "verdict"), "proven");
  const double cold_conflicts = number_field(edited_cold, "conflicts");
  if (cold_conflicts > 0.0) {
    EXPECT_LT(number_field(warm, "conflicts"), cold_conflicts);
  }
}

// --- socket transport --------------------------------------------------------

/// Connect to the daemon's AF_UNIX socket, send one request line, read one
/// response line, hang up. Returns "" on any failure (callers assert).
std::string socket_round_trip(const std::string& path, const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return "";
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string line = request + "\n";
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    ::close(fd);
    return "";
  }
  std::string buffer;
  char chunk[512];
  while (buffer.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return buffer.substr(0, buffer.find('\n'));
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ServeSocket, HungUpClientsAreReapedNotLeaked) {
  ScopedTempDir dir;
  const std::string sock = dir.path() + "/serve.sock";
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  std::thread transport([&server, &sock] { server.run_socket(sock); });

  // Wait for the listener, priming one connection to absorb one-time fds.
  std::string primer;
  for (int attempt = 0; attempt < 250 && primer.empty(); ++attempt) {
    std::this_thread::sleep_for(20ms);
    primer = socket_round_trip(sock, R"({"id":0,"op":"status"})");
  }
  ASSERT_FALSE(primer.empty()) << "daemon never answered on " << sock;

  // Each accept-loop iteration (<= 200ms apart) sweeps hung-up connections.
  std::this_thread::sleep_for(600ms);
  const std::size_t baseline = open_fd_count();

  constexpr int kClients = 20;
  for (int c = 1; c <= kClients; ++c) {
    Json request;
    request.set("id", c);
    request.set("op", "status");
    EXPECT_FALSE(socket_round_trip(sock, request.dump()).empty()) << c;
  }
  std::this_thread::sleep_for(600ms);
  // A resident daemon must not hold one fd per dead client until shutdown.
  EXPECT_LE(open_fd_count(), baseline + 4) << "connection fds leaked";

  server.begin_shutdown();
  transport.join();
}

// --- concurrent clients (TSan rides the *MultiWorker* filter) ----------------

TEST(ServeMultiWorker, ConcurrentClientsGetEveryResponseExactlyOnce) {
  ServerOptions options;
  options.workers = 4;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  constexpr int kClients = 6;
  constexpr int kVerifiesPerClient = 2;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &log, c] {
      const Server::Sink sink = log.sink();
      for (int i = 0; i < kVerifiesPerClient; ++i) {
        Json request;
        request.set("id", "c" + std::to_string(c) + "-" + std::to_string(i));
        request.set("op", "verify");
        request.set("design", "sequencer");
        request.set("max_k", 16);
        server.handle_line(request.dump(), sink);
      }
      Json status;
      status.set("id", "s" + std::to_string(c));
      status.set("op", "status");
      server.handle_line(status.dump(), sink);
    });
  }
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kVerifiesPerClient; ++i) {
      const std::string id = "\"c" + std::to_string(c) + "-" + std::to_string(i) + "\"";
      const Json response = log.wait_for(id);
      EXPECT_TRUE(bool_field(response, "ok")) << response.dump();
      EXPECT_EQ(string_field(response, "verdict"), "proven") << response.dump();
    }
    log.wait_for("\"s" + std::to_string(c) + "\"");
  }
  server.begin_shutdown();
  EXPECT_EQ(log.size(),
            static_cast<std::size_t>(kClients * (kVerifiesPerClient + 1)));
}

}  // namespace
}  // namespace genfv::serve
