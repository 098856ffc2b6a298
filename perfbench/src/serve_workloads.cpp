/// \file serve_workloads.cpp
/// The two serving workloads: an in-process `serve::Server` on default
/// `ServerOptions` (2 workers, pdr, max_k 32), driven by 2 closed-loop
/// clients through `Server::handle_line` — the same entry point both
/// genfv_serve transports use.
///
///   serve_cold        every request carries "cache": false.
///   serve_regression  cache on, and every pass on a freshly primed server;
///                     a seeded mix of exact resubmissions, seeded RTL edits
///                     (near misses) and a small share of cheap misses.

#include <algorithm>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "designs/design.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace genfv;
using serve::Json;
using serve::JsonArray;

namespace {

constexpr std::size_t kMinRequests = 100;  // per pass, for a p90 with 10 samples beyond it

enum class Kind { Cold, Exact, Edit, Miss };

struct Request {
  Json json;  ///< without "id"; the client adds a unique one
  std::string source;
  Kind kind = Kind::Cold;
  std::size_t targets = 1;
};

Json design_request(const std::string& source) {
  Json request;
  request.set("op", "verify");
  request.set(source.find('/') != std::string::npos ? "file" : "design", source);
  return request;
}

/// Target count per source, read once from a freshly built task.
std::size_t count_targets(const std::string& source) {
  if (source.find('/') != std::string::npos) {
    return flow::VerificationTask::from_file(source).target_indices.size();
  }
  return designs::design_by_name(source).targets.size();
}

/// A seeded RTL edit: a free-running heartbeat register of `width` bits
/// stepping by `step`, added to `design`. The properties are untouched, so
/// the verdict is the design's, and every original state keeps its
/// signature — a near miss for the proof cache.
Json edit_request(const designs::DesignInfo& design, unsigned width, std::uint64_t step) {
  const std::string w = std::to_string(width);
  const std::string block =
      "  logic [" + std::to_string(width - 1) + ":0] hb;\n"
      "  always_ff @(posedge clk) begin\n"
      "    if (rst) hb <= " + w + "'d0;\n"
      "    else hb <= hb + " + w + "'d" + std::to_string(step) + ";\n"
      "  end\n";
  std::string rtl = design.rtl;
  rtl.insert(rtl.rfind("endmodule"), block);
  JsonArray properties;
  for (const flow::TargetSpec& target : design.targets) {
    Json p;
    p.set("name", target.name);
    p.set("sva", target.sva);
    properties.push_back(p);
  }
  Json request;
  request.set("op", "verify");
  request.set("rtl", rtl);
  request.set("properties", Json(properties));
  return request;
}

struct Reply {
  Json json;
  double latency_ms = 0.0;
};

std::string string_field(const Json& json, const char* name) {
  const Json* field = json.get(name);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

double number_field(const Json& json, const char* name) {
  const Json* field = json.get(name);
  return field != nullptr && field->is_number() ? field->as_number() : 0.0;
}

/// One request, timed from send to response. The synchronous part of
/// handle_line (parse, session checkout, elaboration) is the admit time and
/// the response's wall_ms is the job's; the rest of the latency is queue
/// wait. A worker can pick the job up before handle_line has returned, so
/// admit ends at the earlier of the two and the parts never overlap.
Reply call(serve::Server& server, const Json& request, Probe& probe) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> answer = done->get_future();
  const std::string line = request.dump();
  const std::uint64_t start = now_ns();
  server.handle_line(line, [done](const std::string& response) { done->set_value(response); });
  const std::uint64_t returned = now_ns();
  const std::string text = answer.get();
  const std::uint64_t end = now_ns();
  Reply reply;
  reply.json = Json::parse(text);
  reply.latency_ms = static_cast<double>(end - start) / 1e6;
  const double wall_ms = std::min(number_field(reply.json, "wall_ms"), reply.latency_ms);
  const double admit_ms =
      std::min(static_cast<double>(returned - start) / 1e6, reply.latency_ms - wall_ms);
  if (util::tracing_on()) {
    util::trace_record_span("bench", "request", start, end - start);
    util::trace_record_span("bench", "serve.admit", start,
                            static_cast<std::uint64_t>(admit_ms * 1e6));
  }
  probe.add("serve.admit_ms", admit_ms);
  probe.add("serve.queue_wait_ms", reply.latency_ms - admit_ms - wall_ms);
  probe.add("serve.wall_ms", wall_ms);
  return reply;
}

/// Check one response against the request's expectations; "" when it passes.
std::string check_reply(const Request& request, const Reply& reply) {
  const Json& r = reply.json;
  const Json* ok = r.get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return request.source + ": error response " + r.dump();
  }
  const std::string verdict = string_field(r, "verdict");
  const mc::Verdict v = verdict == "proven"      ? mc::Verdict::Proven
                        : verdict == "falsified" ? mc::Verdict::Falsified
                                                 : mc::Verdict::Unknown;
  if (verdict != "proven" && verdict != "falsified" && verdict != "unknown") {
    return request.source + ": bad verdict " + r.dump();
  }
  if (std::string bad = check_verdict(request.source, v); !bad.empty()) return bad;
  const std::string cache = string_field(r, "cache");
  switch (request.kind) {
    case Kind::Cold:
      if (cache != "off") return request.source + ": cache bypass answered " + r.dump();
      break;
    case Kind::Exact:
      if (string_field(r, "engine") != "cache+recertify" || v != mc::Verdict::Proven) {
        return request.source + ": resubmission not recertified " + r.dump();
      }
      break;
    case Kind::Edit:
      if (cache != "near" || number_field(r, "candidates_seeded") <= 0 ||
          v != mc::Verdict::Proven) {
        return request.source + ": edit not a seeded near miss " + r.dump();
      }
      break;
    case Kind::Miss:
      if (cache != "miss") return request.source + ": expected a miss " + r.dump();
      break;
  }
  return "";
}

class ServeWorkload : public Workload {
 public:
  void run_pass(std::size_t pass, PassStats& out) override {
    std::vector<Request> requests = pass_requests(pass);
    // Closed loop: one client per worker of the default pool.
    const std::size_t client_count = serve::ServerOptions{}.workers;
    std::atomic<std::size_t> next{0};
    std::vector<PassStats> stats(client_count);
    std::vector<Probe> probes(client_count);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < client_count; ++c) {
      clients.emplace_back([&, c] {
        note_client_thread();
        for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
          Request& request = requests[i];
          request.json.set("id", std::to_string(pass) + "-" + std::to_string(i));
          PassStats& s = stats[c];
          Reply reply;
          try {
            reply = call(*server_, request.json, probes[c]);
          } catch (const std::exception& e) {
            s.fail(request.source + ": " + e.what());
            ++s.jobs;
            continue;
          }
          s.latency_ms.push_back(reply.latency_ms);
          ++s.jobs;
          s.targets += request.targets;
          if (string_field(reply.json, "verdict") == "proven") s.proven += request.targets;
          if (std::string bad = check_reply(request, reply); !bad.empty()) s.fail(bad);
          Probe& p = probes[c];
          p.add("serve.near.seeded", number_field(reply.json, "candidates_seeded"));
          p.add("serve.near.graduated", number_field(reply.json, "candidates_graduated"));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t c = 0; c < client_count; ++c) {
      out.merge(stats[c]);
      for (const auto& [name, value] : probes[c].sums) probe_.add(name, value);
    }
  }

  std::set<int> client_threads() const override {
    std::lock_guard<std::mutex> lock(threads_mu_);
    return client_threads_;
  }

 protected:
  /// The request list of one pass, in seeded order.
  virtual std::vector<Request> pass_requests(std::size_t pass) = 0;

  /// Send one request outside the measured phase and insist it succeeds.
  Reply warm(const Json& request) {
    Json with_id = request;
    with_id.set("id", "warm-" + std::to_string(warm_ids_++));
    Probe scratch;
    Reply reply = call(*server_, with_id, scratch);
    const Json* ok = reply.json.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      throw std::runtime_error("warm-up request failed: " + reply.json.dump());
    }
    return reply;
  }

  std::unique_ptr<serve::Server> server_;
  std::uint64_t seed_ = 0;
  std::size_t warm_ids_ = 0;

 private:
  void note_client_thread() {
    std::lock_guard<std::mutex> lock(threads_mu_);
    client_threads_.insert(util::telemetry_thread_id());
  }

  mutable std::mutex threads_mu_;
  std::set<int> client_threads_;
};

/// Every zoo design and corpus file once with the cache bypassed, then the
/// cheap sources again until the pass holds kMinRequests requests.
class ServeCold : public ServeWorkload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    server_.reset();
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
    sources_ = zoo_designs();
    for (const std::string& file : corpus_files()) sources_.push_back(file);
    targets_.clear();
    for (const std::string& source : sources_) {
      targets_[source] = count_targets(source);
      // Warm-up: create the session (a one-frame bound keeps it cheap).
      Json request = design_request(source);
      request.set("cache", false);
      request.set("max_k", 1);
      warm(request);
    }
  }

 protected:
  std::vector<Request> pass_requests(std::size_t pass) override {
    std::vector<Request> heavy;
    std::vector<Request> cheap;
    const auto add = [&](const std::string& source) {
      Json json = design_request(source);
      json.set("cache", false);
      (is_heavy(source) ? heavy : cheap)
          .push_back(Request{json, source, Kind::Cold, targets_.at(source)});
    };
    for (const std::string& source : sources_) add(source);
    while (heavy.size() + cheap.size() < kMinRequests) {
      for (const std::string& source : sources_) {
        if (!is_heavy(source) && heavy.size() + cheap.size() < kMinRequests) add(source);
      }
    }
    // The heavy proofs open the pass, so both clients start on one and the
    // cheap requests fill in around them. In a fully shuffled pass a heavy
    // proof drawn last runs alone, and pass time would follow the draw.
    shuffle(heavy, mix_seed(seed_, pass, 0xC01D));
    shuffle(cheap, mix_seed(seed_, pass, 0xC4EA));
    heavy.insert(heavy.end(), cheap.begin(), cheap.end());
    return heavy;
  }

 private:
  /// The deep fifo_ctrl proof, the lemma-starved lfsr_pair Unknown and the
  /// dual_accumulator proof run once per pass; the rest repeat.
  static bool is_heavy(const std::string& source) {
    return source == "fifo_ctrl" || source == "lfsr_pair" || source == "dual_accumulator";
  }

  std::vector<std::string> sources_;
  std::map<std::string, std::size_t> targets_;
};

/// Cache primed in setup; the measured mix is mostly exact resubmissions,
/// seeded RTL edits of primed designs (near misses that seed PDR) and a
/// seeded share of cheap misses. Expensive cold proofs stay in serve_cold.
///
/// Every pass starts on a freshly primed server. Each edit leaves a cache
/// entry and an idle session behind, and misses and edits scan every entry,
/// so without the reset the cost of a request and the peak memory would grow
/// with the number of passes that fit the run.
///
/// The mix is an assumption, not measured traffic (see README.md). Edits
/// plus misses make about 20% of a pass, twice the 10% beyond p90, so p90
/// falls inside that slow group rather than on its edge with the fast one.
class ServeRegression : public ServeWorkload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    util::Xoshiro256 rng(mix_seed(seed, 0x5E7));
    misses_ = kRequests * (7 + rng.below(3)) / 100;  // 7-9%, seeded
    edits_ = kRequests * 12 / 100;
    targets_.clear();
    for (const std::string& source : primed_sources()) targets_[source] = count_targets(source);
    for (const char* source : kMissSources) targets_[source] = count_targets(source);
    prime();
  }

  void prepare_pass() override {
    if (!fresh_) prime();
  }

 protected:
  std::vector<Request> pass_requests(std::size_t pass) override {
    fresh_ = false;
    util::Xoshiro256 rng(mix_seed(seed_, pass, 0x2E6));
    std::vector<Request> requests;
    for (std::size_t i = 0; i < misses_; ++i) {
      const std::string source = kMissSources[i % std::size(kMissSources)];
      requests.push_back(Request{design_request(source), source, Kind::Miss, targets_.at(source)});
    }
    std::set<std::string> edits;
    for (std::size_t i = 0; i < edits_; ++i) {
      const std::string& base = kEditBases[rng.below(std::size(kEditBases))];
      unsigned width;
      std::uint64_t step;
      do {  // every edit in a pass is new, so it is never an exact hit
        width = static_cast<unsigned>(rng.range(3, 12));
        step = rng.range(1, (std::uint64_t{1} << width) - 1);
      } while (!edits.insert(base + "/" + std::to_string(width) + "/" + std::to_string(step))
                    .second);
      requests.push_back(Request{edit_request(designs::design_by_name(base), width, step),
                                 base, Kind::Edit, targets_.at(base)});
    }
    while (requests.size() < kRequests) {
      const std::string& source = cached_[rng.below(cached_.size())];
      requests.push_back(Request{design_request(source), source, Kind::Exact, targets_.at(source)});
    }
    shuffle(requests, mix_seed(seed_, pass, 0x5EF));
    return requests;
  }

 private:
  /// Requests per pass: one regression session against one primed server.
  static constexpr std::size_t kRequests = 500;
  /// Cheap designs that are never cached (their default proof is Unknown).
  static constexpr const char* kMissSources[] = {"sync_counters", "triple_counters"};

  /// A new server, primed: a stored cold proof of every primed source, and
  /// a session for each miss source.
  void prime() {
    server_.reset();
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
    cached_.clear();
    for (const std::string& source : primed_sources()) {
      const Reply reply = warm(design_request(source));  // cold proof, stored
      if (string_field(reply.json, "verdict") != "proven") {
        throw std::runtime_error("priming did not prove " + source);
      }
      // A proof without an invariant to store (sdiv_props closes without
      // frame clauses) stays a miss; only recertifiable sources resubmit.
      if (string_field(warm(design_request(source)).json, "engine") == "cache+recertify") {
        cached_.push_back(source);
      }
    }
    for (const char* source : kMissSources) {
      Json request = design_request(source);
      request.set("max_k", 1);
      warm(request);  // session only; an Unknown is never cached
    }
    fresh_ = true;
  }

  /// Designs whose near-miss PDR run is cheap; every edit starts from one.
  static constexpr const char* kEditBases[] = {"updown_pair", "token_ring", "sequencer",
                                               "parity_codec", "hamming74", "gray_counter"};

  /// Sources the cache is primed with: every source whose default cold
  /// proof is Proven and cheap (fifo_ctrl's deep proof stays in serve_cold).
  static std::vector<std::string> primed_sources() {
    std::vector<std::string> sources = {"gray_counter", "updown_pair",  "lfsr16",
                                        "token_ring",   "sequencer",    "dual_accumulator",
                                        "parity_codec", "hamming74",    "secded84"};
    for (const std::string& file : corpus_files()) {
      if (expected_safe(file)) sources.push_back(file);
    }
    return sources;
  }

  std::size_t misses_ = 0;
  std::size_t edits_ = 0;
  std::vector<std::string> cached_;  ///< primed sources that recertify
  std::map<std::string, std::size_t> targets_;
  bool fresh_ = false;  ///< no pass has run on the server since it was primed
};

}  // namespace

std::unique_ptr<Workload> make_serve_cold() { return std::make_unique<ServeCold>(); }
std::unique_ptr<Workload> make_serve_regression() {
  return std::make_unique<ServeRegression>();
}

}  // namespace perfbench
