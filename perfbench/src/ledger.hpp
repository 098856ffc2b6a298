#pragma once

/// \file ledger.hpp
/// Per-layer self-time table of a traced pass (see ledger.cpp).

#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Ledger {
  /// Layer -> self time in ms. Sums to `wall_ms` exactly, with the
  /// "unattributed" row as the remainder.
  std::map<std::string, double> self_ms;
  /// Job wall time the table explains: the sum of CLI job wall times, or of
  /// serve request latencies.
  double wall_ms = 0.0;
  /// "category/name" -> total span duration over all threads, in ms.
  std::map<std::string, double> span_ms;

  double span(const std::string& key) const {
    const auto it = span_ms.find(key);
    return it == span_ms.end() ? 0.0 : it->second;
  }
};

/// Fold `events` into the table. With no client threads, jobs ran on
/// `main_thread`; otherwise they are serve requests timed by those clients.
Ledger fold_trace(const std::vector<genfv::util::TraceEventView>& events, int main_thread,
                  const std::set<int>& client_threads, const Probe& probe);

}  // namespace perfbench
