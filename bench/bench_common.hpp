#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the experiment benches: deterministic seeds, default
/// flow options, and a tiny helper to run google-benchmark registrations
/// after the experiment tables have been printed.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "genai/simulated_llm.hpp"
#include "mc/result.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace genfv::bench {

/// Every bench prints its seed so results are reproducible by construction.
inline constexpr std::uint64_t kSeed = 42;

inline flow::FlowOptions default_flow_options() {
  flow::FlowOptions options;
  options.engine.max_k = 8;
  return options;
}

inline void print_header(const char* experiment, const char* paper_source,
                         const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces: %s)\n", experiment, paper_source);
  std::printf("%s\n", claim);
  std::printf("seed = %llu\n", static_cast<unsigned long long>(kSeed));
  std::printf("==============================================================\n");
}

/// Print the experiment tables, then hand over to google-benchmark for the
/// micro-timing registrations (if any).
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Consume a `--flag <path>` / `--flag=<path>` pair from argv (so the
/// remaining arguments can be handed to google-benchmark untouched).
/// Returns the value, or "" when the flag is absent.
inline std::string take_flag_value(int* argc, char** argv, const std::string& flag) {
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < *argc) {
      value = argv[++i];
      continue;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      value = arg.substr(flag.size() + 1);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

/// Machine-readable bench results: a flat JSON array of records, one per
/// experiment row, written with no third-party dependency so every bench
/// binary can emit trajectory-tracking data (BENCH_*.json) by itself.
class JsonRecords {
 public:
  using Value = std::variant<std::string, std::int64_t, std::uint64_t, double, bool>;

  /// Start a new record; subsequent field() calls fill it.
  JsonRecords& record() {
    records_.emplace_back();
    return *this;
  }

  JsonRecords& field(const std::string& key, Value value) {
    records_.back().emplace_back(key, std::move(value));
    return *this;
  }

  /// One field per EngineStats counter, named after the counter.
  JsonRecords& counters(const mc::EngineStats& stats) {
    mc::EngineStats::for_each_counter(
        [&](const char* name, auto value) { field(name, static_cast<std::uint64_t>(value)); },
        stats);
    return *this;
  }

  std::string to_string() const {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      out << "  {";
      for (std::size_t f = 0; f < records_[r].size(); ++f) {
        if (f != 0) out << ", ";
        write_string(out, records_[r][f].first);
        out << ": ";
        write_value(out, records_[r][f].second);
      }
      out << (r + 1 < records_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    return out.str();
  }

  /// Write the array to `path`; returns false (with a message on stderr)
  /// when the file cannot be opened.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write JSON results to '%s'\n", path.c_str());
      return false;
    }
    out << to_string();
    std::printf("wrote %zu result record(s) to %s\n", records_.size(), path.c_str());
    return true;
  }

 private:
  static void write_string(std::ostringstream& out, const std::string& s) {
    out << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out << buf;
          } else {
            out << c;
          }
      }
    }
    out << '"';
  }

  static void write_value(std::ostringstream& out, const Value& value) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      write_string(out, *s);
    } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
      out << *i;
    } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
      out << *u;
    } else if (const auto* d = std::get_if<double>(&value)) {
      out << *d;
    } else {
      out << (std::get<bool>(value) ? "true" : "false");
    }
  }

  std::vector<std::vector<std::pair<std::string, Value>>> records_;
};

}  // namespace genfv::bench
