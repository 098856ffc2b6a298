/// \file genfv_serve.cpp
/// The resident verification daemon (docs/serve.md).
///
/// Two transports over one server core:
///   genfv_serve                       # line-delimited JSON on stdin/stdout
///   genfv_serve --socket /tmp/g.sock  # AF_UNIX socket, concurrent clients
///
/// A regression farm keeps one daemon resident: re-submitting an unmodified
/// design costs a cache hit plus a one-step re-certification instead of a
/// full proof, and an edited design starts PDR warm from the surviving
/// clauses of the previous invariant (scripts/serve_client.py is the
/// reference client).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace {

genfv::serve::Server* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: flip the drain flag only; the accept/stdio loops
  // notice within their poll timeout and drain on their own thread.
  if (g_server != nullptr) g_server->request_shutdown();
}

struct ServeCliOptions {
  genfv::serve::ServerOptions server;
  std::string socket_path;
  std::string metrics_out_path;
  bool verbose = false;
};

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: genfv_serve [options]\n"
               "\n"
               "Resident verification server; line-delimited JSON protocol\n"
               "(docs/serve.md). Without --socket, serves stdin/stdout.\n"
               "\n"
               "options:\n"
               "  --socket <path>      serve an AF_UNIX socket instead of stdio\n"
               "  --workers <n|auto>   worker pool width (default 2)\n"
               "  --cache <on|off>     proof cache (default on)\n"
               "  --cache-dir <dir>    persist cache entries under <dir>\n"
               "  --near-threshold <f> near-miss similarity threshold (default 0.5)\n"
               "  --max-k <n>          default step bound for jobs (default 32)\n"
               "  --engine <name>      default engine for jobs (default pdr)\n"
               "  --metrics-out <file> write the metrics registry JSON at exit\n"
               "  --verbose            log at Info\n");
  std::exit(2);
}

/// Throws UsageError for a malformed numeric flag (util::parse_number); every
/// other mistake calls usage() directly.
ServeCliOptions parse_args(int argc, char** argv) {
  ServeCliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    const std::size_t eq = arg.find('=');
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const auto need_value = [&](const char* flag) -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) usage((std::string(flag) + " requires a value").c_str());
      return argv[++i];
    };

    if (arg == "--socket") opts.socket_path = need_value("--socket");
    else if (arg == "--workers") {
      const std::string value = need_value("--workers");
      if (value == "auto") {
        const unsigned hw = std::thread::hardware_concurrency();
        opts.server.workers = hw > 1 ? hw / 2 : 1;
      } else {
        opts.server.workers = genfv::util::parse_number<std::size_t>("--workers", value);
        if (opts.server.workers == 0) usage("--workers takes a count >= 1 or 'auto'");
      }
    }
    else if (arg == "--cache") {
      const std::string value = need_value("--cache");
      if (value == "on") opts.server.cache = true;
      else if (value == "off") opts.server.cache = false;
      else usage("--cache takes 'on' or 'off'");
    }
    else if (arg == "--cache-dir") opts.server.cache_dir = need_value("--cache-dir");
    else if (arg == "--near-threshold") {
      opts.server.near_threshold =
          genfv::util::parse_number<double>("--near-threshold", need_value("--near-threshold"));
      if (opts.server.near_threshold <= 0.0 || opts.server.near_threshold > 1.0) {
        usage("--near-threshold takes a fraction in (0, 1]");
      }
    }
    else if (arg == "--max-k") {
      opts.server.default_max_steps =
          genfv::util::parse_number<std::size_t>("--max-k", need_value("--max-k"));
    }
    else if (arg == "--engine") opts.server.default_engine = need_value("--engine");
    else if (arg == "--metrics-out") opts.metrics_out_path = need_value("--metrics-out");
    else if (arg == "--verbose") opts.verbose = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace genfv;

  const ServeCliOptions opts = [&] {
    try {
      return parse_args(argc, argv);
    } catch (const UsageError& e) {
      usage(e.what());
    }
  }();
  if (opts.verbose) util::set_log_level(util::LogLevel::Info);
  if (!opts.metrics_out_path.empty()) {
    util::set_telemetry_level(util::TelemetryLevel::Metrics);
  }

  int rc = 0;
  try {
    serve::Server server(opts.server);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (opts.socket_path.empty()) {
      server.run_stdio(std::cin, std::cout);
    } else {
      server.run_socket(opts.socket_path);
    }
    g_server = nullptr;
  } catch (const genfv::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  if (!opts.metrics_out_path.empty() && util::write_metrics_json(opts.metrics_out_path)) {
    std::fprintf(stderr, "wrote metrics %s\n", opts.metrics_out_path.c_str());
  }
  return rc;
}
