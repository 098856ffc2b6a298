/// \file ledger.cpp
/// Fold a traced pass into a per-layer self-time table.
///
/// Sources: the benchmark's own "bench" spans around its calls into public
/// functions (task build, LLM completion, flow run, engine call, server
/// request and admit), and the spans the library already records (flow/*,
/// mc/*, pdr/*, portfolio/*, sat/*, serve/*). Self time is a span's duration
/// minus its direct children on the same thread.
///
/// Layers without a public boundary on the measured paths fold into their
/// caller and are never split by guesswork: bitblast and mc/unroller into
/// mc and sat self time, sim into flow (candidate screening) and genai (the
/// simulated model re-parses and simulates the design), the SVA compile of
/// LLM candidates into flow, ir::struct_hash into serve (cache lookup), and
/// the elaboration of a new serve session into serve (admit).

#include <algorithm>
#include <cstring>

#include "ledger.hpp"

namespace perfbench {

namespace {

std::string layer_of(const genfv::util::TraceEventView& e) {
  const std::string category = e.category;
  if (category == "bench") {
    static const std::map<std::string, std::string> kBench = {
        {"hdl.elaborate", "hdl"}, {"genai.complete", "genai"},
        {"flow.run", "flow"},     {"serve.admit", "serve"}};
    const auto it = kBench.find(e.name);
    return it == kBench.end() ? "unattributed" : it->second;
  }
  if (category == "flow") return "flow";
  if (category == "mc" || category == "pdr" || category == "portfolio") return "mc";
  if (category == "sat") return "sat";
  if (category == "serve") return "serve";
  return "unattributed";
}

struct Span {
  const genfv::util::TraceEventView* event;
  std::uint64_t end;
  std::uint64_t children = 0;
};

/// Self time per layer of one thread's spans, in ms.
std::map<std::string, double> thread_self_ms(std::vector<const genfv::util::TraceEventView*> events) {
  std::sort(events.begin(), events.end(), [](const auto* a, const auto* b) {
    return a->start_ns != b->start_ns ? a->start_ns < b->start_ns : a->dur_ns > b->dur_ns;
  });
  std::map<std::string, double> self;
  std::vector<Span> stack;
  const auto close = [&](const Span& s) {
    const std::uint64_t own = s.event->dur_ns > s.children ? s.event->dur_ns - s.children : 0;
    self[layer_of(*s.event)] += static_cast<double>(own) / 1e6;
  };
  for (const auto* e : events) {
    while (!stack.empty() && stack.back().end <= e->start_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().children += e->dur_ns;
    stack.push_back(Span{e, e->start_ns + e->dur_ns});
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
  return self;
}

bool is(const genfv::util::TraceEventView& e, const char* category, const char* name) {
  return std::strcmp(e.category, category) == 0 && std::strcmp(e.name, name) == 0;
}

}  // namespace

Ledger fold_trace(const std::vector<genfv::util::TraceEventView>& events, int main_thread,
                  const std::set<int>& client_threads, const Probe& probe) {
  const bool serving = !client_threads.empty();
  Ledger ledger;
  std::map<int, std::vector<const genfv::util::TraceEventView*>> by_thread;
  for (const auto& e : events) {
    if (e.instant) continue;
    by_thread[e.thread].push_back(&e);
    ledger.span_ms[std::string(e.category) + "/" + e.name] += static_cast<double>(e.dur_ns) / 1e6;
    if (serving ? is(e, "bench", "request") : is(e, "bench", "job") && e.thread == main_thread) {
      ledger.wall_ms += static_cast<double>(e.dur_ns) / 1e6;
    }
  }
  for (const auto& [thread, list] : by_thread) {
    // CLI jobs run on the main thread (the flows' target and candidate
    // proofs are k-induction, single-threaded). Serve jobs run on the worker
    // threads; request and admit times on the clients come from the probe.
    const bool bench_thread = thread == main_thread || client_threads.count(thread) != 0;
    if (serving == bench_thread) continue;
    for (const auto& [layer, ms] : thread_self_ms(list)) ledger.self_ms[layer] += ms;
  }
  if (serving) {
    // Request latency = admit + queue wait + the response's wall_ms; worker
    // spans explain part of wall_ms and the rest is unattributed.
    double explained = 0.0;
    for (const auto& [layer, ms] : ledger.self_ms) {
      if (layer != "unattributed") explained += ms;
    }
    ledger.self_ms["unattributed"] = probe.get("serve.wall_ms") - explained;
    ledger.self_ms["serve"] += probe.get("serve.admit_ms") + probe.get("serve.queue_wait_ms");
  }
  return ledger;
}

}  // namespace perfbench
