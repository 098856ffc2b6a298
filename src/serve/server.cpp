#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <thread>
#include <utility>

#include "designs/design.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace genfv::serve {

namespace {

/// A request that failed validation. `code` is the stable machine-readable
/// error class the protocol documents (docs/serve.md); the message carries
/// the located human detail.
class ProtocolError : public Error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)) {}
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

Json error_response(const Json& id, const std::string& code, const std::string& message) {
  Json response;
  response.set("id", id);
  response.set("ok", false);
  response.set("error", code);
  response.set("message", message);
  return response;
}

/// The request id, echoed on every response. Restricted to strings and
/// numbers so it can double as the cancel handle.
Json request_id(const Json& request) {
  const Json* id = request.get("id");
  if (id == nullptr) throw ProtocolError("missing-id", "request carries no 'id'");
  if (!id->is_string() && !id->is_number()) {
    throw ProtocolError("bad-id", "'id' must be a string or a number");
  }
  return *id;
}

std::string id_key(const Json& id) { return id.dump(); }

const Json* optional_field(const Json& request, const std::string& name,
                           Json::Kind kind, const char* kind_name) {
  const Json* field = request.get(name);
  if (field == nullptr) return nullptr;
  if (field->kind() != kind) {
    throw ProtocolError("bad-field", "'" + name + "' must be " + kind_name);
  }
  return field;
}

double job_wall_ms(const std::chrono::steady_clock::time_point& start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::None: return "";
    case StopReason::Cancel: return "cancel";
    case StopReason::Deadline: return "deadline";
    case StopReason::Shutdown: return "shutdown";
  }
  return "";
}

}  // namespace

struct Server::PreparedJob {
  Json id;
  std::string id_text;
  Sink send;
  std::string task_key;
  TaskHandle task;
  mc::EngineKind kind = mc::EngineKind::Pdr;
  std::string engine_name;
  std::size_t max_steps = 32;
  bool use_cache = true;
  std::string design_label;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(ProofCache::Options{options_.cache_dir, options_.near_threshold}),
      pool_(options_.workers == 0 ? 1 : options_.workers) {}

Server::~Server() { begin_shutdown(); }

void Server::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_relaxed);
  pool_.drain();
}

void Server::handle_line(const std::string& line, const Sink& send) {
  // Blank lines are keep-alives, not protocol errors.
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;

  Json request;
  try {
    request = Json::parse(line);
  } catch (const ParseError& e) {
    send(error_response(Json(), "bad-json", e.what()).dump());
    return;
  }
  if (!request.is_object()) {
    send(error_response(Json(), "not-an-object",
                        "request must be a JSON object").dump());
    return;
  }

  Json id;
  try {
    id = request_id(request);
  } catch (const ProtocolError& e) {
    send(error_response(Json(), e.code(), e.what()).dump());
    return;
  }

  try {
    dispatch(request, send);
  } catch (const ProtocolError& e) {
    send(error_response(id, e.code(), e.what()).dump());
  } catch (const Error& e) {
    // Anything the validation layer did not classify (an engine-layer throw
    // during eager task construction) still answers the request.
    send(error_response(id, "internal", e.what()).dump());
  }
}

void Server::dispatch(const Json& request, const Sink& send) {
  const Json id = request_id(request);
  const Json* op = request.get("op");
  if (op == nullptr) throw ProtocolError("missing-op", "request carries no 'op'");
  if (!op->is_string()) throw ProtocolError("missing-op", "'op' must be a string");
  const std::string& name = op->as_string();

  if (name == "verify") {
    handle_verify(request, id_key(id), send);
    return;
  }
  if (name == "cancel") {
    const Json* job = request.get("job");
    if (job == nullptr || (!job->is_string() && !job->is_number())) {
      throw ProtocolError("bad-field", "'job' must name a verify request id");
    }
    Json response;
    response.set("id", id);
    response.set("ok", true);
    response.set("cancelled", pool_.cancel(id_key(*job)));
    send(response.dump());
    return;
  }
  if (name == "status") {
    const WorkerPool::Stats stats = pool_.stats();
    Json response;
    response.set("id", id);
    response.set("ok", true);
    response.set("workers", static_cast<std::uint64_t>(pool_.worker_count()));
    response.set("queued", static_cast<std::uint64_t>(stats.queued));
    response.set("active", static_cast<std::uint64_t>(stats.active));
    response.set("completed", stats.completed);
    response.set("answered", jobs_answered());
    response.set("cancelled", stats.cancelled);
    response.set("deadlined", stats.deadlined);
    response.set("cache_size", static_cast<std::uint64_t>(cache_.size()));
    response.set("cache_hits", cache_hits());
    response.set("cache_near_hits", cache_near_hits());
    response.set("cache_misses", cache_misses());
    response.set("cache_rejected", cache_.rejected_files());
    response.set("draining", shutting_down());
    send(response.dump());
    return;
  }
  if (name == "shutdown") {
    Json response;
    response.set("id", id);
    response.set("ok", true);
    response.set("draining", true);
    send(response.dump());
    // Drain *after* acknowledging: in-flight jobs still emit their own
    // responses while we block here; transports exit once this returns.
    begin_shutdown();
    return;
  }
  throw ProtocolError("unknown-op", "unknown op '" + name + "'");
}

Server::TaskHandle Server::checkout_task(const std::string& key, const Json& request) {
  {
    util::MutexLock lock(tasks_mu_);
    auto it = idle_tasks_.find(key);
    if (it != idle_tasks_.end() && !it->second.empty()) {
      TaskHandle task = std::move(it->second.back());
      it->second.pop_back();
      util::metrics().counter("serve.sessions.reused").increment();
      return task;
    }
  }

  // Build a fresh task for the request source. Source errors surface as the
  // protocol's located error classes.
  flow::VerificationTask task;
  if (const Json* design = optional_field(request, "design", Json::Kind::String,
                                          "a string")) {
    try {
      task = designs::make_task(design->as_string());
    } catch (const Error& e) {
      throw ProtocolError("unknown-design", e.what());
    }
  } else if (const Json* file = optional_field(request, "file", Json::Kind::String,
                                               "a string")) {
    try {
      task = flow::VerificationTask::from_file(file->as_string());
    } catch (const Error& e) {
      throw ProtocolError("bad-file", e.what());
    }
  } else if (const Json* rtl = optional_field(request, "rtl", Json::Kind::String,
                                              "a string")) {
    std::vector<flow::TargetSpec> targets;
    const Json* properties = request.get("properties");
    if (properties != nullptr) {
      if (!properties->is_array()) {
        throw ProtocolError("bad-field", "'properties' must be an array");
      }
      for (const Json& p : properties->as_array()) {
        if (p.is_string()) {
          targets.push_back(flow::TargetSpec{
              "p" + std::to_string(targets.size()), p.as_string()});
        } else if (p.is_object() && p.get("sva") != nullptr &&
                   p.get("sva")->is_string()) {
          const Json* prop_name = p.get("name");
          targets.push_back(flow::TargetSpec{
              prop_name != nullptr && prop_name->is_string()
                  ? prop_name->as_string()
                  : "p" + std::to_string(targets.size()),
              p.get("sva")->as_string()});
        } else {
          throw ProtocolError("bad-field",
                              "'properties' entries must be SVA strings or "
                              "{name, sva} objects");
        }
      }
    }
    try {
      task = flow::VerificationTask::from_rtl("serve_rtl", "", rtl->as_string(),
                                              targets);
    } catch (const Error& e) {
      throw ProtocolError("bad-rtl", e.what());
    }
  } else {
    throw ProtocolError("missing-source",
                        "verify needs exactly one of 'design', 'file', 'rtl'");
  }

  // Optional target filter by property name.
  if (const Json* property = optional_field(request, "property", Json::Kind::String,
                                            "a string")) {
    std::vector<std::size_t> filtered;
    for (const std::size_t i : task.target_indices) {
      if (task.ts.property(i).name == property->as_string()) filtered.push_back(i);
    }
    if (filtered.empty()) {
      throw ProtocolError("unknown-property",
                          "no target property named '" + property->as_string() + "'");
    }
    task.target_indices = std::move(filtered);
  }
  if (task.target_indices.empty()) {
    throw ProtocolError("no-targets", "the source carries no target properties");
  }
  util::metrics().counter("serve.sessions.created").increment();
  return std::make_shared<const flow::VerificationTask>(std::move(task));
}

void Server::return_task(const std::string& key, TaskHandle task) {
  util::MutexLock lock(tasks_mu_);
  idle_tasks_[key].push_back(std::move(task));
}

void Server::handle_verify(const Json& request, const std::string& id_text,
                           const Sink& send) {
  if (shutting_down()) {
    throw ProtocolError("server-draining",
                        "server is draining; new verify jobs are rejected");
  }

  auto job = std::make_shared<PreparedJob>();
  job->id = request_id(request);
  job->id_text = id_text;
  job->send = send;

  // Exactly one source selector.
  int sources = 0;
  for (const char* field : {"design", "file", "rtl"}) {
    if (request.get(field) != nullptr) ++sources;
  }
  if (sources > 1) {
    throw ProtocolError("conflicting-source",
                        "give exactly one of 'design', 'file', 'rtl'");
  }

  job->engine_name = options_.default_engine;
  if (const Json* engine = optional_field(request, "engine", Json::Kind::String,
                                          "a string")) {
    job->engine_name = engine->as_string();
  }
  const auto kind = mc::engine_kind_from_string(job->engine_name);
  if (!kind.has_value()) {
    throw ProtocolError("unknown-engine", "unknown engine '" + job->engine_name + "'");
  }
  job->kind = *kind;

  job->max_steps = options_.default_max_steps;
  if (const Json* max_k = optional_field(request, "max_k", Json::Kind::Number,
                                         "a number")) {
    // The range check keeps the cast below defined.
    const double value = max_k->as_number();
    if (value < 0 || value > static_cast<double>(kMaxRequestMaxK) ||
        std::floor(value) != value) {
      throw ProtocolError("bad-field", "'max_k' must be a whole number from 0 to " +
                                           std::to_string(kMaxRequestMaxK));
    }
    job->max_steps = static_cast<std::size_t>(value);
  }

  job->use_cache = options_.cache;
  if (const Json* cache = optional_field(request, "cache", Json::Kind::Bool,
                                         "a boolean")) {
    job->use_cache = cache->as_bool();
  }

  double deadline_ms = 0.0;
  if (const Json* deadline = optional_field(request, "deadline_ms", Json::Kind::Number,
                                            "a number")) {
    deadline_ms = deadline->as_number();
    if (deadline_ms <= 0 || deadline_ms > static_cast<double>(kMaxDeadlineMs)) {
      throw ProtocolError("bad-field", "'deadline_ms' must be positive and at most " +
                                           std::to_string(kMaxDeadlineMs));
    }
  }

  // Task key: everything that feeds elaboration (different keys must never
  // share an elaborated task; a stale reuse answers for the wrong design or
  // the wrong property set).
  const Json* design = request.get("design");
  const Json* file = request.get("file");
  const Json* rtl = request.get("rtl");
  if (design != nullptr && design->is_string()) {
    job->task_key = "design:" + design->as_string();
    job->design_label = design->as_string();
  } else if (file != nullptr && file->is_string()) {
    // Mix the file's on-disk identity (mtime + size) into the key: the
    // regression-farm loop this server targets edits files in place between
    // submissions, and a reused task must not pin the old content. When
    // the stat fails the key stays path-only and checkout_task's
    // from_file reports the located bad-file error.
    job->task_key = "file:" + file->as_string();
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(file->as_string(), ec);
    if (!ec) {
      const std::uintmax_t size = std::filesystem::file_size(file->as_string(), ec);
      if (!ec) {
        job->task_key += "@" +
                            std::to_string(mtime.time_since_epoch().count()) +
                            "." + std::to_string(size);
      }
    }
    job->design_label = file->as_string();
  } else if (rtl != nullptr && rtl->is_string()) {
    // The property list is part of the key: identical RTL verified against
    // different property sets elaborates different target sets. The dump
    // goes first, newline-terminated — Json::dump never emits a raw
    // newline, so the free-form RTL text cannot forge another key.
    const Json* properties = request.get("properties");
    job->task_key =
        "rtl:" + (properties != nullptr ? properties->dump() : std::string()) +
        "\n" + rtl->as_string();
    job->design_label = "rtl";
  }
  if (const Json* property = request.get("property")) {
    if (property->is_string()) {
      job->task_key += "|property=" + property->as_string();
    }
  }

  // Eager task construction: source errors answer the request synchronously
  // (and located), instead of surfacing later from a worker thread.
  job->task = checkout_task(job->task_key, request);

  const bool submitted = pool_.submit(
      job->id_text, deadline_ms,
      [this, job](JobControl& control) { run_verify_job(job, control); });
  if (!submitted) {
    return_task(job->task_key, std::move(job->task));
    throw ProtocolError("server-draining",
                        "server is draining; new verify jobs are rejected");
  }
}

void Server::answer(const PreparedJob& job, const Json& response) {
  // Incremented before the send: a client holding N verify responses always
  // reads `answered` >= N from a later status op, with no retirement lag.
  answered_.fetch_add(1, std::memory_order_relaxed);
  job.send(response.dump());
}

void Server::run_verify_job(const std::shared_ptr<PreparedJob>& job,
                            JobControl& control) {
  const auto start = std::chrono::steady_clock::now();
  Json response;
  response.set("id", job->id);

  // Cancelled while still queued: answer without spinning up an engine.
  if (control.stopped()) {
    response.set("ok", true);
    response.set("verdict", "unknown");
    response.set("cache", job->use_cache ? "miss" : "off");
    response.set("stopped", stop_reason_name(control.stop_reason()));
    response.set("wall_ms", job_wall_ms(start));
    return_task(job->task_key, job->task);
    answer(*job, response);
    return;
  }

  try {
    const ir::TransitionSystem& ts = job->task->ts;
    const std::vector<ir::NodeRef> targets = job->task->target_exprs();

    mc::EngineOptions options;
    options.max_steps = job->max_steps;
    options.stop = control.stop;

    std::string cache_status = job->use_cache ? "miss" : "off";
    CacheLookup lookup;
    if (job->use_cache) {
      GENFV_TRACE_SPAN("serve", "cache_lookup");
      lookup = cache_.lookup(ts, targets);
    }

    if (lookup.outcome == CacheOutcome::Exact) {
      GENFV_TRACE_SPAN("serve", "recertify");
      mc::EngineResult certified = recertify(ts, targets, *lookup.entry, options);
      if (certified.verdict == mc::Verdict::Proven) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        util::metrics().counter("serve.cache.hits").increment();
        certified.stats.publish_metrics("serve.job.");
        response.set("ok", true);
        response.set("verdict", "proven");
        response.set("depth", static_cast<std::uint64_t>(lookup.entry->depth));
        response.set("engine", "cache+recertify");
        response.set("cache", "hit");
        response.set("conflicts", certified.stats.conflicts);
        response.set("sat_calls", static_cast<std::uint64_t>(certified.stats.sat_calls));
        response.set("candidates_seeded", std::uint64_t{0});
        response.set("wall_ms", job_wall_ms(start));
        return_task(job->task_key, job->task);
        answer(*job, response);
        return;
      }
      // The entry failed its independent re-certification. Only a check
      // that ran to completion refutes it (corrupted store, hash
      // collision): drop those. A check interrupted by the stop flag
      // (cancel/deadline trips options.stop mid-induction) says nothing
      // about the entry — keep it for the next request and fall through
      // to the cold/stopped path.
      if (!control.stopped()) {
        cache_.invalidate(lookup.entry->sys_hash, lookup.entry->prop_hash);
        cache_status = "rejected";
      }
      lookup = CacheLookup{};
    }

    if (lookup.outcome == CacheOutcome::Near) {
      near_.fetch_add(1, std::memory_order_relaxed);
      util::metrics().counter("serve.cache.near_hits").increment();
      // Surviving clauses enter as *candidates* that must graduate before
      // PDR uses them — a stale clause costs work, never soundness.
      options.pdr_candidate_lemmas = surviving_clauses(ts, *lookup.entry);
      cache_status = "near";
    } else if (job->use_cache && cache_status == "miss") {
      misses_.fetch_add(1, std::memory_order_relaxed);
      util::metrics().counter("serve.cache.misses").increment();
    }

    mc::EngineResult result;
    {
      GENFV_TRACE_SPAN("serve", "job");
      result = mc::make_engine(job->kind, ts, options)->prove_all(targets);
    }
    result.stats.publish_metrics("serve.job.");

    if (job->use_cache && result.verdict == mc::Verdict::Proven &&
        !control.stopped()) {
      cache_.store(job->design_label, ts, targets, result);
    }

    response.set("ok", true);
    response.set("verdict", mc::to_string(result.verdict));
    response.set("depth", static_cast<std::uint64_t>(result.depth));
    response.set("engine", job->engine_name);
    response.set("cache", cache_status);
    response.set("conflicts", result.stats.conflicts);
    response.set("sat_calls", static_cast<std::uint64_t>(result.stats.sat_calls));
    response.set("candidates_seeded", result.stats.candidates_seeded);
    response.set("candidates_graduated", result.stats.candidates_graduated);
    if (!result.winner.empty()) response.set("winner", result.winner);
    const StopReason reason = control.stop_reason();
    if (reason != StopReason::None) {
      response.set("stopped", stop_reason_name(reason));
    }
    response.set("wall_ms", job_wall_ms(start));
  } catch (const Error& e) {
    response = error_response(job->id, "job-failed", e.what());
    response.set("wall_ms", job_wall_ms(start));
  } catch (const std::exception& e) {
    // Engine code throws genfv Error, but the stdlib underneath it may not
    // (bad_alloc, filesystem): a worker thread must still answer the
    // request and return the task, never std::terminate the daemon.
    response = error_response(job->id, "internal", e.what());
    response.set("wall_ms", job_wall_ms(start));
  } catch (...) {
    response = error_response(job->id, "internal", "unrecognized exception");
    response.set("wall_ms", job_wall_ms(start));
  }
  return_task(job->task_key, job->task);
  answer(*job, response);
}

void Server::run_stdio(std::istream& in, std::ostream& out) {
  util::Mutex out_mu("serve.stdio_out");
  const Sink sink = [&out, &out_mu](const std::string& line) {
    util::MutexLock lock(out_mu);
    out << line << "\n" << std::flush;
  };
  std::string line;
  while (!shutting_down() && std::getline(in, line)) {
    handle_line(line, sink);
  }
  begin_shutdown();
}

// --- AF_UNIX socket transport ------------------------------------------------

namespace {

/// Per-connection state shared between the accept loop (which reaps it and
/// may shut the socket down), the reader thread, and any in-flight job's
/// sink. shared_ptr-owned: a job submitted just before the client hung up
/// keeps the state (and fd) alive until its response is delivered; the last
/// owner closes the fd.
struct Connection {
  int fd = -1;
  util::Mutex send_mu{"serve.conn_send"};
  std::thread reader;
  /// Set by the reader as its last action; tells the accept loop this
  /// connection is ready to be joined and dropped.
  std::atomic<bool> done{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; its responses die with it
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

void Server::run_socket(const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw UsageError("serve: cannot create a unix socket");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(listen_fd);
    throw UsageError("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    ::close(listen_fd);
    throw UsageError("serve: cannot bind '" + path + "'");
  }
  GENFV_LOG(Info, "serve") << "listening on " << path;

  std::vector<std::shared_ptr<Connection>> connections;
  const auto reap_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->reader.join();
        // Dropping our reference closes the fd — unless a still-running job
        // holds the sink, in which case the fd lives until that response.
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!shutting_down()) {
    // A resident daemon serves many short-lived clients: sweep hung-up
    // connections every loop iteration or each one leaks a joinable thread
    // and (once its jobs finish) an fd until shutdown.
    reap_finished();
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->reader = std::thread([this, conn] {
      const Sink sink = [conn](const std::string& line) {
        util::MutexLock lock(conn->send_mu);
        send_all(conn->fd, line + "\n");
      };
      std::string buffer;
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline;
        while ((newline = buffer.find('\n')) != std::string::npos) {
          const std::string line = buffer.substr(0, newline);
          buffer.erase(0, newline + 1);
          handle_line(line, sink);
        }
      }
      conn->done.store(true, std::memory_order_release);
    });
    connections.push_back(std::move(conn));
  }

  // Graceful close: drain in-flight jobs (idempotent after a shutdown op,
  // necessary after a signal-driven request_shutdown), then shut the
  // sockets down to unblock the reader threads' recv.
  begin_shutdown();
  for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : connections) conn->reader.join();
  connections.clear();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace genfv::serve
