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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "designs/design.hpp"
#include "flow/job.hpp"
#include "ir/struct_hash.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/pdr/cube.hpp"
#include "serve/json.hpp"
#include "serve/proof_cache.hpp"
#include "serve/server.hpp"
#include "serve/worker_pool.hpp"
#include "sim/random_sim.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"
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

/// One PDR run over the task's targets, as a serve job runs it.
mc::EngineResult prove_pdr(const flow::VerificationTask& task, const mc::EngineOptions& options) {
  return mc::make_engine(mc::EngineKind::Pdr, task.ts, options)->prove_all(task.target_exprs());
}

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
      {R"({"id":1,"op":"verify","design":"sequencer","max_k":2.5})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","max_k":1e30})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","max_k":1e999})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","max_k":1000001})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","deadline_ms":0})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","deadline_ms":1e30})", "bad-field"},
      {R"({"id":1,"op":"verify","design":"sequencer","deadline_ms":86400001})",
       "bad-field"},
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

TEST(ServeProtocol, RequestWithoutEngineOrBoundRunsTheServerSpec) {
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  server.handle_line(R"({"id":"spec","op":"verify","design":"sequencer","cache":false})",
                     log.sink());
  const Json response = log.wait_for("\"spec\"");

  const flow::JobSpec spec = flow::JobSpec::server();
  auto task = designs::make_task("sequencer");
  mc::EngineOptions engine_options;
  engine_options.max_steps = spec.max_steps;
  const mc::EngineResult direct =
      mc::make_engine(spec.engine, task.ts, engine_options)->prove_all(task.target_exprs());

  EXPECT_TRUE(bool_field(response, "ok"));
  EXPECT_EQ(string_field(response, "engine"), "pdr");
  EXPECT_EQ(string_field(response, "verdict"), mc::to_string(direct.verdict));
  EXPECT_EQ(number_field(response, "depth"), static_cast<double>(direct.depth));
  EXPECT_EQ(number_field(response, "conflicts"), static_cast<double>(direct.stats.conflicts));
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

TEST(ServeProtocol, BadSourceFieldIsRejectedWithAndWithoutAPooledTask) {
  // The source fields are type-checked before the task pool is consulted, so
  // a pooled lfsr16 task must not let a non-string 'property' filter through
  // to a job that proves every target.
  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);
  const std::string bad =
      R"({"id":2,"op":"verify","design":"lfsr16","max_k":1,"cache":false,"property":5})";

  server.handle_line(bad, log.sink());
  const Json fresh = log.wait_for("2");
  EXPECT_FALSE(bool_field(fresh, "ok"));
  EXPECT_EQ(string_field(fresh, "error"), "bad-field");
  EXPECT_EQ(string_field(fresh, "message"), "'property' must be a string");

  server.handle_line(R"({"id":1,"op":"verify","design":"lfsr16","max_k":1,"cache":false})",
                     log.sink());
  EXPECT_TRUE(bool_field(log.wait_for("1"), "ok"));  // its task is back in the pool

  server.handle_line(R"({"id":3,"op":"verify","design":"lfsr16","max_k":1,"cache":false,)"
                     R"("property":5})",
                     log.sink());
  const Json pooled = log.wait_for("3");
  EXPECT_FALSE(bool_field(pooled, "ok"));
  EXPECT_EQ(string_field(pooled, "error"), "bad-field");
  EXPECT_EQ(string_field(pooled, "message"), "'property' must be a string");
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

TEST(ServeProtocol, PooledTaskJobsMatchAFreshTask) {
  // A pooled task is immutable: a job on a reused task, even one checked
  // out right after an exact cache hit re-certified on it, does exactly
  // the SAT work of a PDR run on a freshly built task.
  mc::EngineOptions fresh_options;
  fresh_options.max_steps = 16;
  const mc::EngineResult fresh = prove_pdr(designs::make_task("sequencer"), fresh_options);
  ASSERT_EQ(fresh.verdict, mc::Verdict::Proven);

  util::Counter& created = util::metrics().counter("serve.sessions.created");
  util::Counter& reused = util::metrics().counter("serve.sessions.reused");
  const std::uint64_t created_before = created.value();
  const std::uint64_t reused_before = reused.value();

  ServerOptions options;
  options.workers = 1;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);
  const auto verify = [&](const std::string& id, bool use_cache) {
    const std::string cache = use_cache ? "" : R"(,"cache":false)";
    server.handle_line(R"({"id":")" + id +
                           R"(","op":"verify","design":"sequencer","engine":"pdr","max_k":16)" +
                           cache + "}",
                       log.sink());
    return log.wait_for("\"" + id + "\"");
  };
  const auto expect_fresh = [&](const Json& response, const std::string& what) {
    EXPECT_EQ(string_field(response, "verdict"), mc::to_string(fresh.verdict)) << what;
    EXPECT_EQ(number_field(response, "depth"), static_cast<double>(fresh.depth)) << what;
    EXPECT_EQ(number_field(response, "sat_calls"), static_cast<double>(fresh.stats.sat_calls))
        << what;
    EXPECT_EQ(number_field(response, "conflicts"), static_cast<double>(fresh.stats.conflicts))
        << what;
  };

  expect_fresh(verify("new_task", false), "new task");
  const Json primed = verify("prime", true);
  EXPECT_EQ(string_field(primed, "cache"), "miss");
  expect_fresh(primed, "cache miss");
  EXPECT_EQ(string_field(verify("hit", true), "cache"), "hit");
  expect_fresh(verify("after_hit", false), "after an exact hit");
  expect_fresh(verify("reused", false), "reused task");

  EXPECT_EQ(created.value() - created_before, 1u);
  EXPECT_EQ(reused.value() - reused_before, 4u);
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

/// Cache entries store the blocked *cube*; the clause is its negation, so a
/// negated cube literal renders as the positive bit.
mc::pdr::Cube unit_clause(std::uint32_t state, std::uint32_t bit, bool negated) {
  return {mc::pdr::StateLit{state, bit, negated}};
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
  entry.clauses.push_back(unit_clause(0, 1, true));   // no such bit
  const std::vector<ir::NodeRef> targets{ts.states()[0].var};
  const mc::EngineResult result = recertify(ts, targets, entry, mc::EngineOptions{});
  EXPECT_NE(result.verdict, mc::Verdict::Proven);
  EXPECT_EQ(result.stats.sat_calls, 0u);  // rejected before any solving
  // The near-miss payload keeps the fitting subset instead.
  EXPECT_EQ(surviving_clauses(ts, entry).size(), 1u);
}

TEST(ServeCache, RecertifyAssumesThePropertyWhenTheClausesDoNotImplyIt) {
  // Two held bits, both starting at 1; P = a, Inv = {b}. Inv alone does not
  // imply P, but Inv ∧ P is inductive: consecution assumes P@0.
  ir::TransitionSystem ts;
  const ir::NodeRef a = ts.add_state("a", 1);
  const ir::NodeRef b = ts.add_state("b", 1);
  for (const ir::NodeRef bit : {a, b}) {
    ts.set_init(bit, ts.nm().mk_true());
    ts.set_next(bit, bit);
  }
  CacheEntry entry;
  entry.clauses.push_back(unit_clause(1, 0, true));  // clause: b
  const mc::EngineResult result = recertify(ts, {a}, entry, mc::EngineOptions{});
  EXPECT_EQ(result.verdict, mc::Verdict::Proven);
  // Initiation, ¬b@1 and ¬P@1.
  EXPECT_EQ(result.stats.sat_calls, 3u);
}

TEST(ServeCache, RecertifyRejectsAnEntryAnInitialStateEscapes) {
  // "c is 0" holds from every state where it holds and implies the trivial
  // target, but c starts at 1: only initiation refutes it.
  ir::TransitionSystem ts = holding_bit_system();
  CacheEntry entry;
  entry.clauses.push_back(unit_clause(0, 0, false));  // clause: !c
  const std::vector<ir::NodeRef> targets{ts.nm().mk_true()};
  const mc::EngineResult result = recertify(ts, targets, entry, mc::EngineOptions{});
  EXPECT_NE(result.verdict, mc::Verdict::Proven);
  EXPECT_EQ(result.stats.sat_calls, 1u);
}

/// A `width`-bit counter x from 0, stepping by 1, under the environment
/// constraint x != `excluded`. The state before `excluded` is a dead end:
/// its only successor breaks the constraint, so constrained traces stop
/// there.
ir::TransitionSystem constrained_counter(unsigned width, std::uint64_t excluded) {
  ir::TransitionSystem ts;
  ir::NodeManager& nm = ts.nm();
  const ir::NodeRef x = ts.add_state("x", width);
  ts.set_init(x, nm.mk_const(0, width));
  ts.set_next(x, nm.mk_add(x, nm.mk_const(1, width)));
  ts.add_constraint(nm.mk_ne(x, nm.mk_const(excluded, width)));
  return ts;
}

/// The monolithic check the per-clause `recertify` replaced, kept as its
/// oracle: one-step induction over targets ∧ clauses. Only acceptance is
/// compared; the oracle reports an initiation failure as Falsified.
bool one_step_induction_accepts(const ir::TransitionSystem& ts,
                                const std::vector<ir::NodeRef>& targets,
                                const CacheEntry& entry) {
  std::vector<ir::NodeRef> goals = targets;
  const std::vector<ir::NodeRef> clauses = surviving_clauses(ts, entry);
  goals.insert(goals.end(), clauses.begin(), clauses.end());
  mc::EngineOptions options;
  options.max_steps = 1;
  return mc::KInductionEngine(ts, options).prove_all(goals).verdict == mc::Verdict::Proven;
}

TEST(ServeCache, RecertifyAcceptsExactlyWhatOneStepInductionAccepts) {
  // Every zoo design and corpus file PDR proves at the server's 32 frames,
  // and a 3-bit counter with a dead end under a state constraint, each with
  // its stored entry and three tampered copies of it; then a bogus entry
  // whose bad state is a dead end.
  std::vector<flow::VerificationTask> tasks;
  for (const designs::DesignInfo& info : designs::all_designs()) {
    tasks.push_back(designs::make_task(info));
  }
  std::vector<std::filesystem::path> files;
  for (const auto& file : std::filesystem::directory_iterator(GENFV_TEST_CORPUS_DIR)) {
    files.push_back(file.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    tasks.push_back(flow::VerificationTask::from_file(file.string()));
    tasks.back().name = file.filename().string();
  }
  {
    // x = 4 is a dead end under x != 5; the target x != 7 needs a clause
    // that rules out x = 6.
    flow::VerificationTask counter;
    counter.name = "constrained_counter";
    counter.ts = constrained_counter(3, 5);
    ir::NodeManager& nm = counter.ts.nm();
    counter.ts.add_property({"never_seven",
                             nm.mk_ne(counter.ts.states()[0].var, nm.mk_const(7, 3)),
                             ir::PropertyRole::Target, ""});
    counter.target_indices.push_back(0);
    tasks.push_back(std::move(counter));
  }

  mc::EngineOptions options;
  options.max_steps = 32;
  std::size_t entries = 0;
  std::size_t rejected = 0;
  for (const flow::VerificationTask& task : tasks) {
    const ir::TransitionSystem& ts = task.ts;
    const std::vector<ir::NodeRef> targets = task.target_exprs();
    const mc::EngineResult cold = prove_pdr(task, options);
    ProofCache cache(ProofCache::Options{});
    // A proof with an empty invariant (the targets alone are inductive)
    // leaves no entry.
    if (!cache.store(task.name, ts, targets, cold)) {
      EXPECT_NE(task.name, "constrained_counter");
      continue;
    }
    const CacheLookup lookup = cache.lookup(ts, targets);
    ASSERT_EQ(lookup.outcome, CacheOutcome::Exact) << task.name;
    const CacheEntry& stored = *lookup.entry;

    CacheEntry dropped = stored;
    dropped.clauses.erase(dropped.clauses.begin() + dropped.clauses.size() / 2);
    CacheEntry flipped = stored;
    flipped.clauses.front().front().negated = !flipped.clauses.front().front().negated;
    // A unit clause pinning state 0, bit 0 to the opposite of its value in
    // one initial state (the clause asserts the bit equals `negated`).
    const ir::NodeRef state0 = ts.states().front().var;
    const bool init_bit = (sim::RandomSimulator(ts, 1).reset_state().at(state0) & 1) != 0;
    CacheEntry escaped = stored;
    escaped.clauses.push_back(unit_clause(0, 0, !init_bit));

    const std::pair<const char*, const CacheEntry*> cases[] = {
        {"stored", &stored}, {"dropped", &dropped}, {"flipped", &flipped}, {"escaped", &escaped}};
    for (const auto& [label, entry] : cases) {
      const bool accepted =
          recertify(ts, targets, *entry, mc::EngineOptions{}).verdict == mc::Verdict::Proven;
      EXPECT_EQ(accepted, one_step_induction_accepts(ts, targets, *entry))
          << task.name << " / " << label;
      if (entry == &stored) {
        EXPECT_TRUE(accepted) << task.name;
      } else if (entry == &escaped) {
        EXPECT_FALSE(accepted) << task.name;
      }
      rejected += accepted ? 0 : 1;
      ++entries;
    }
  }
  {
    // A bogus entry whose bad state is a dead end. 2-bit x under x != 3;
    // P = x != 2, Inv = {x != 3}. x = 2 is reached in two steps with the
    // constraint holding throughout, and its only successor 3 breaks the
    // constraint. A ¬P query posed with the frame-1 constraint in force
    // cannot see that state; ¬P@1 from Inv ∧ P@0 does.
    ir::TransitionSystem ts = constrained_counter(2, 3);
    const std::vector<ir::NodeRef> targets{
        ts.nm().mk_ne(ts.states()[0].var, ts.nm().mk_const(2, 2))};
    CacheEntry bogus;
    bogus.clauses.push_back({mc::pdr::StateLit{0, 0, false},
                             mc::pdr::StateLit{0, 1, false}});  // clause: x != 3
    const bool accepted =
        recertify(ts, targets, bogus, mc::EngineOptions{}).verdict == mc::Verdict::Proven;
    EXPECT_FALSE(accepted);
    EXPECT_EQ(accepted, one_step_induction_accepts(ts, targets, bogus));
  }
  // Neither side may be vacuous: many entries, accepted and rejected alike.
  EXPECT_GE(entries, 4 * 8u);
  EXPECT_GT(rejected, entries / 4);
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
  const flow::VerificationTask task = designs::make_task("sequencer");
  mc::EngineOptions options;
  options.max_steps = 16;
  const mc::EngineResult cold = prove_pdr(task, options);
  ASSERT_EQ(cold.verdict, mc::Verdict::Proven);
  ASSERT_FALSE(cold.invariant.empty());

  const ir::TransitionSystem& ts = task.ts;
  const std::vector<ir::NodeRef> targets = task.target_exprs();
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
  entry.clauses.push_back({{1, 0, false}, {0, 2, true}});

  const std::string text = ProofCache::render_entry(entry);
  const CacheEntry back = ProofCache::parse_entry(text);
  EXPECT_EQ(back.design, entry.design);
  EXPECT_EQ(back.sys_hash, entry.sys_hash);
  EXPECT_EQ(back.prop_hash, entry.prop_hash);
  EXPECT_EQ(back.depth, entry.depth);
  EXPECT_EQ(back.state_sigs, entry.state_sigs);
  EXPECT_EQ(back.clauses, entry.clauses);
  EXPECT_EQ(ProofCache::render_entry(back), text);

  // The entry is one JSON object; hashes are hex strings (a JSON number
  // cannot hold 64 bits exactly).
  EXPECT_EQ(text,
            "{\"format\":\"genfv-proof-cache 2\",\"design\":\"micro\","
            "\"sys\":\"0123456789abcdef\",\"prop\":\"fedcba9876543210\",\"depth\":7,"
            "\"states\":[[4,\"1111222233334444\"],[1,\"5555666677778888\"]],"
            "\"clauses\":[[[0,3,true]],[[1,0,false],[0,2,true]]]}\n");

  const auto with = [&text](const std::string& from, const std::string& to) {
    std::string t = text;
    const std::size_t at = t.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? std::string() : t.replace(at, from.size(), to);
  };
  const std::string corruptions[] = {
      "",                                                  // empty input
      with("genfv-proof-cache 2", "genfv-proof-cache 1"),  // wrong format tag
      with("\"format\":\"genfv-proof-cache 2\",", ""),     // no format tag
      "# genfv-proof-cache 1\ndesign micro\n",             // the v1 line format
      text.substr(0, text.size() / 2),                     // truncated
      text + "trailing junk\n",                            // trailing junk
      with("[0,3,true]", "[0,3,tru]"),                     // broken literal
      with("[0,3,true]", "[0,3]"),                         // literal missing a field
      with("[0,3,true]", "[0,3,1]"),                       // polarity not a bool
      with("[0,3,true]", "[0,2.5,true]"),                  // fractional bit
      with("[0,3,true]", "[-1,3,true]"),                   // negative state
      with("[0,3,true]", "[4294967296,3,true]"),           // state beyond uint32_t
      with("[[0,3,true]]", "[]"),                          // empty clause
      with("[4,", "[65,"),                                 // width above 64
      with("[4,", "[0,"),                                  // width 0
      with("\"depth\":7", "\"depth\":\"7\""),              // wrong-typed field
      with("\"design\":\"micro\"", "\"design\":3"),        // wrong-typed field
      with("\"states\":[[4,", "\"states\":[{\"width\":4},"),  // wrong-typed field
      with("0123456789abcdef", "0123456789abcdeg"),        // non-hex hash
      with("0123456789abcdef", "123456789abcdef"),         // short hash
      with("\"0123456789abcdef\"", "81985529216486895"),   // hash as a number
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
  std::ofstream(dir.path() + "/bad.pcache") << "{\"format\":\"genfv-proof-cache 2\"";
  // The same entry in the retired line format (v1): rejected like any other
  // file that does not parse, never read best-effort.
  std::ofstream(dir.path() + "/v1.pcache")
      << "# genfv-proof-cache 1\ndesign micro\nsys 0000000000000001\n"
         "prop 0000000000000002\ndepth 1\nstates 1\nsig 1 000000000000002a\n"
         "clauses 1\nclause 0.0+\n";
  std::ofstream(dir.path() + "/ignored.txt") << "not a cache file";

  ProofCache cache(ProofCache::Options{dir.path(), 0.5});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.rejected_files(), 2u);
}

TEST(ServeCache, PersistsAcrossInstancesAndFreshElaboration) {
  ScopedTempDir dir;
  {
    const flow::VerificationTask task = designs::make_task("sequencer");
    mc::EngineOptions options;
    options.max_steps = 16;
    const mc::EngineResult cold = prove_pdr(task, options);
    ASSERT_EQ(cold.verdict, mc::Verdict::Proven);
    ProofCache cache(ProofCache::Options{dir.path(), 0.5});
    ASSERT_TRUE(cache.store("sequencer", task.ts, task.target_exprs(), cold));
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
  // Seed a run with contradictory candidate clauses: PDR must drop or
  // strand them and still prove the design.
  const flow::VerificationTask task = designs::make_task("sequencer");
  const ir::TransitionSystem& ts = task.ts;

  mc::EngineOptions cold_options;
  cold_options.max_steps = 16;
  const mc::EngineResult cold = prove_pdr(task, cold_options);
  ASSERT_EQ(cold.verdict, mc::Verdict::Proven);

  mc::EngineOptions warm_options = cold_options;
  const ir::NodeRef bit0 = mc::pdr::clause_expr(ts, unit_clause(0, 0, false));
  const ir::NodeRef not_bit0 = mc::pdr::clause_expr(ts, unit_clause(0, 0, true));
  warm_options.pdr_candidate_lemmas = {bit0, not_bit0};
  const mc::EngineResult warm = prove_pdr(task, warm_options);
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
    const flow::VerificationTask task = designs::make_task(info.name);
    const mc::EngineResult cold = prove_pdr(task, cold_options);
    if (cold.verdict != mc::Verdict::Proven || cold.invariant.empty()) continue;
    ++proven;

    ProofCache cache(ProofCache::Options{});
    const std::vector<ir::NodeRef> targets = task.target_exprs();
    ASSERT_TRUE(cache.store(info.name, task.ts, targets, cold)) << info.name;
    const CacheLookup lookup = cache.lookup(task.ts, targets);
    ASSERT_EQ(lookup.outcome, CacheOutcome::Exact) << info.name;

    mc::EngineOptions warm_options = cold_options;
    warm_options.pdr_candidate_lemmas = surviving_clauses(task.ts, *lookup.entry);
    ASSERT_FALSE(warm_options.pdr_candidate_lemmas.empty()) << info.name;
    const mc::EngineResult warm = prove_pdr(task, warm_options);
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

TEST(ServeCache, FailedPersistStillAnswersTheVerdict) {
  // The cache directory turns into a plain file after the server started:
  // every entry write fails. The proof stands, and the entry still serves
  // the next identical job from memory.
  ScopedTempDir dir;
  const std::string cache_dir = dir.path() + "/cache";
  std::filesystem::create_directory(cache_dir);
  ServerOptions options;
  options.workers = 1;
  options.proof_cache.dir = cache_dir;
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  Server server(options);

  std::filesystem::remove(cache_dir);
  std::ofstream(cache_dir) << "not a directory";

  server.handle_line(R"({"id":1,"op":"verify","design":"sequencer","max_k":16})",
                     log.sink());
  const Json cold = log.wait_for("1");
  EXPECT_TRUE(bool_field(cold, "ok")) << cold.dump();
  EXPECT_EQ(string_field(cold, "verdict"), "proven");
  EXPECT_EQ(server.cache().size(), 1u);

  server.handle_line(R"({"id":2,"op":"verify","design":"sequencer","max_k":16})",
                     log.sink());
  const Json warm = log.wait_for("2");
  EXPECT_EQ(string_field(warm, "verdict"), "proven");
  EXPECT_EQ(string_field(warm, "cache"), "hit");
}

TEST(ServeCache, RecertifySpanClosesBeforeTheReplyIsSent) {
  // serve/recertify times the check alone: the reply is built and sent
  // after the span ends, so a ledger that splits wall_ms by spans never
  // counts the send twice.
  util::set_telemetry_level(util::TelemetryLevel::Tracing);
  util::trace_reset();
  std::atomic<std::uint64_t> hit_sent_ns{0};
  ResponseLog log;  // outlives the server: ~Server drains jobs into the sink
  {
    ServerOptions options;
    options.workers = 1;
    Server server(options);
    server.handle_line(R"({"id":1,"op":"verify","design":"sequencer","max_k":16})",
                       log.sink());
    EXPECT_EQ(string_field(log.wait_for("1"), "verdict"), "proven");
    server.handle_line(R"({"id":2,"op":"verify","design":"sequencer","max_k":16})",
                       [&](const std::string& line) {
                         hit_sent_ns = util::telemetry_now_ns();
                         log.push(line);
                       });
    EXPECT_EQ(string_field(log.wait_for("2"), "cache"), "hit");
  }  // joins the worker: every span is recorded
  std::size_t spans = 0;
  for (const util::TraceEventView& event : util::trace_snapshot()) {
    if (std::string(event.name) != "recertify") continue;
    ++spans;
    EXPECT_LE(event.start_ns + event.dur_ns, hit_sent_ns.load());
  }
  EXPECT_EQ(spans, 1u);
  util::set_telemetry_level(util::TelemetryLevel::Off);
  util::trace_reset();
}

// --- end-to-end incremental re-verification ----------------------------------

TEST(ServeIncremental, OneExpressionEditWarmStartsFromSurvivingClauses) {
  ServerOptions options;
  options.workers = 1;
  options.proof_cache.near_threshold = 0.4;
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
