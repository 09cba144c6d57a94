// ifsyn_tool: command-line front end for the whole flow.
//
//   ifsyn_tool <spec.ifs> [options]
//
//     --protocol full|half|fixed|wired   protocol selection (default full)
//     --fixed-delay N                    cycles/word for the fixed-delay protocol
//     --arbitrate                        serialize masters with a bus lock
//     --emit-vhdl <file>                 write the refined spec as VHDL
//     --print-spec                       dump the refined IR as pseudo-VHDL
//     --no-cosim                         skip the equivalence co-simulation
//     --max-time N                       co-simulation budget (cycles)
//     --vcd <file>                       dump the refined run's waveform
//     --report <file>                    write a Markdown synthesis report
//     --metrics <file>                   write the metrics registry as JSON
//     --chrome-trace <file>              write a chrome://tracing trace
//
//   ifsyn_tool check <spec.ifs | builtin:flc|am|ethernet|fig3> [options]
//
//     --protocol full|half|fixed|wired   protocol selection (default full)
//     --fixed-delay N                    cycles/word for the fixed-delay protocol
//     --arbitrate                        serialize masters with a bus lock
//     --metrics <file>                   write the metrics registry as JSON
//
//     Synthesizes the spec (checker gate off), then runs the static
//     protocol checker (src/check) and prints every diagnostic. Exit 0
//     only when the refined system is clean. The builtin: targets check
//     the built-in case-study suite without needing a spec file.
//
//   ifsyn_tool batch <manifest.jsonl> [options]
//
//     --workers N                        worker pool size (default 1)
//     --queue N                          bounded queue capacity (default 64)
//     --deadline-ms N                    default per-request deadline
//     --repeat N                         drain the manifest N times (cache
//                                        warming; default 1)
//     --responses <file>                 write JSONL responses (default stdout)
//     --metrics-text <file>              write the service metrics snapshot
//                                        (prometheus text) after draining
//     --no-timing                        omit wall-clock fields from responses
//                                        (byte-comparable output)
//     --trace <file>                     write one service-wide Chrome trace:
//                                        every request's lifecycle + engine
//                                        spans, flow-linked across threads
//     --event-log <file>                 write the structured JSONL event log
//     --watchdog-ms N                    poll in-flight workers every N ms,
//                                        exporting serve.worker.* gauges
//     --trace-dir <dir>                  directory for slow-request captures
//     --slow-trace-ms N                  capture traces of requests slower
//                                        than N ms (requires --trace-dir)
//     --slow-trace-keep N                keep the N slowest captures (def. 4)
//
//     Drains a newline-delimited JSON request manifest (see
//     src/serve/request.hpp for the schema) through the serve worker
//     pool, writing one response line per request in manifest order.
//     Exit 0 only when every response is ok.
//
//   ifsyn_tool serve [options]
//
//     --workers N / --queue N / --deadline-ms N / --metrics-text <file>
//     --no-timing / --trace / --event-log / --watchdog-ms / --trace-dir /
//     --slow-trace-ms / --slow-trace-keep   as for batch
//
//     Reads JSONL requests from stdin, writes JSONL responses to stdout
//     in request order — synthesis-as-a-service over a pipe; no HTTP
//     dependency. EOF drains the queue and exits.
//
//   ifsyn_tool explore <spec.ifs> [options]
//
//     --threads N                        worker pool size (default 1)
//     --top-k K                          sim-validate the best K front points
//     --protocols full,half,fixed        protocols to enumerate
//     --widths LO:HI                     width range (default 1:largest msg)
//     --fixed-delay N                    cycles/word for fixed-delay points
//     --max-clocks PROC=N                per-process execution-time limit
//     --alt-groupings                    also try single-bus / per-accessor /
//                                        per-channel channel groupings
//     --sim-max-time N                   budget per validation run (cycles)
//     --report <file>                    write the exploration Markdown
//     --json <file>                      write the exploration JSON
//     --metrics <file>                   write the metrics registry as JSON
//     --chrome-trace <file>              write a chrome://tracing trace
//
// Reads a textual specification (see src/spec/parser.hpp for the
// language), runs interface synthesis (bus generation for groups without
// a pinned width + protocol generation), reports the synthesized bus
// structures, co-simulates original vs refined, and optionally emits
// VHDL -- the complete Fig. 1 flow from a file. The explore subcommand
// instead sweeps the whole design space (grouping x protocol x width) in
// parallel and prints the Pareto front (see src/explore/).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/trace_miner.hpp"
#include "codegen/vhdl_emitter.hpp"
#include "core/equivalence.hpp"
#include "core/interface_synthesizer.hpp"
#include "core/report.hpp"
#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "protocol/trace_analyzer.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "serve/spec_intern.hpp"
#include "sim/vcd.hpp"
#include "spec/parser.hpp"
#include "spec/printer.hpp"

using namespace ifsyn;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <spec.ifs> [--protocol full|half|fixed|wired] "
               "[--fixed-delay N] [--arbitrate]\n"
               "          [--emit-vhdl <file>] [--print-spec] [--no-cosim] "
               "[--max-time N] [--vcd <file>] [--report <file>]\n"
               "          [--metrics <file>] [--chrome-trace <file>]\n"
               "       %s check <spec.ifs|builtin:flc|builtin:am|"
               "builtin:ethernet|builtin:fig3>\n"
               "          [--protocol full|half|fixed|wired] "
               "[--fixed-delay N] [--arbitrate] [--metrics <file>]\n"
               "       %s conform <spec.ifs|builtin:flc|builtin:am|"
               "builtin:ethernet|builtin:fig3>\n"
               "          [--protocol full|half|fixed|wired] "
               "[--fixed-delay N] [--arbitrate] [--max-time N]\n"
               "          [--report <file>] [--metrics <file>]\n"
               "       %s explore <spec.ifs> [--threads N] [--top-k K] "
               "[--protocols full,half,fixed]\n"
               "          [--widths LO:HI] [--fixed-delay N] "
               "[--max-clocks PROC=N] [--alt-groupings]\n"
               "          [--sim-max-time N] [--report <file>] "
               "[--json <file>] [--metrics <file>] [--chrome-trace <file>]\n"
               "       %s batch <manifest.jsonl> [--workers N] [--queue N] "
               "[--deadline-ms N] [--repeat N]\n"
               "          [--responses <file>] [--metrics-text <file>] "
               "[--no-timing] [--trace <file>]\n"
               "          [--event-log <file>] [--watchdog-ms N] "
               "[--trace-dir <dir>] [--slow-trace-ms N]\n"
               "          [--slow-trace-keep N]\n"
               "       %s serve [--workers N] [--queue N] [--deadline-ms N] "
               "[--metrics-text <file>] [--no-timing]\n"
               "          [--trace <file>] [--event-log <file>] "
               "[--watchdog-ms N] [--trace-dir <dir>]\n"
               "          [--slow-trace-ms N] [--slow-trace-keep N]\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

/// Load the system to check: a builtin case study or a parsed spec file.
/// Builtins resolve through serve's table and bring its defaults (the
/// calibration and arbitration their case study is defined with), so the
/// rate re-check runs under the same model as a serve request.
Result<spec::System> load_check_target(const std::string& target,
                                       core::SynthesisOptions& options) {
  if (target.rfind("builtin:", 0) != 0) return spec::parse_system_file(target);
  Result<serve::BuiltinSpec> builtin = serve::find_builtin(target.substr(8));
  if (!builtin.is_ok()) return builtin.status();
  options.arbitrate = options.arbitrate || builtin->defaults.arbitrate;
  options.compute_cycles_override = builtin->defaults.compute_cycles_override;
  return builtin->make();
}

int check_main(int argc, char** argv, const char* argv0) {
  std::string target;
  std::string metrics_path;
  core::SynthesisOptions options;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--protocol") {
      const std::string p = next_value("--protocol");
      if (p == "full") options.protocol = spec::ProtocolKind::kFullHandshake;
      else if (p == "half") options.protocol = spec::ProtocolKind::kHalfHandshake;
      else if (p == "fixed") options.protocol = spec::ProtocolKind::kFixedDelay;
      else if (p == "wired") options.protocol = spec::ProtocolKind::kHardwiredPort;
      else {
        std::fprintf(stderr, "unknown protocol '%s'\n", p.c_str());
        return 2;
      }
    } else if (arg == "--fixed-delay") {
      options.fixed_delay_cycles = std::atoi(next_value("--fixed-delay"));
    } else if (arg == "--arbitrate") {
      options.arbitrate = true;
    } else if (arg == "--metrics") {
      metrics_path = next_value("--metrics");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv0);
    } else if (target.empty()) {
      target = arg;
    } else {
      return usage(argv0);
    }
  }
  if (target.empty()) return usage(argv0);

  Result<spec::System> loaded = load_check_target(target, options);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", target.c_str(),
                 loaded.status().to_string().c_str());
    return 1;
  }
  spec::System system = std::move(loaded).value();

  obs::MetricsRegistry registry;
  obs::ObsContext obs;
  if (!metrics_path.empty()) obs.metrics = &registry;
  options.obs = obs;
  // The gate inside the synthesizer would turn findings into a synthesis
  // failure; here we want the full diagnostic list instead.
  options.run_checker = false;

  // Snapshot compute cycles before synthesis rewrites the process bodies
  // the default compute model reads, so the rate re-check reproduces the
  // generator's Eq. 1 arithmetic.
  const std::map<std::string, long long> compute_snapshot =
      check::snapshot_compute_cycles(system, options.compute_cycles_override);

  core::InterfaceSynthesizer synth(options);
  Result<core::SynthesisReport> synthesized = synth.run(system);
  if (!synthesized.is_ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 synthesized.status().to_string().c_str());
    return 1;
  }

  check::CheckOptions check_options;
  check_options.compute_cycles_override = compute_snapshot;
  const check::CheckReport report =
      check::run_checks(system, check_options, obs);

  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, registry.snapshot().to_json())) return 1;
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  if (report.clean()) {
    std::size_t refined_buses = 0;
    for (const auto& bus : system.buses()) {
      if (bus->generated()) ++refined_buses;
    }
    std::printf("check clean: %zu bus(es), %zu channel(s), "
                "0 diagnostics\n",
                refined_buses, system.channels().size());
    return 0;
  }
  std::printf("%s\n", report.to_string().c_str());
  std::fprintf(stderr, "check failed: %d error(s), %d warning(s)\n",
               report.errors(), report.warnings());
  return 1;
}

/// `conform` -- the dynamic counterpart of `check`: synthesize the
/// target, actually run it, and diff the trace-mined protocol automaton
/// of every refined bus against the statically extracted one. Exit 0
/// only when the mined and static views agree on every lane.
int conform_main(int argc, char** argv, const char* argv0) {
  std::string target;
  std::string metrics_path;
  std::string report_path;
  std::uint64_t max_time = 10'000'000;
  core::SynthesisOptions options;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--protocol") {
      const std::string p = next_value("--protocol");
      if (p == "full") options.protocol = spec::ProtocolKind::kFullHandshake;
      else if (p == "half") options.protocol = spec::ProtocolKind::kHalfHandshake;
      else if (p == "fixed") options.protocol = spec::ProtocolKind::kFixedDelay;
      else if (p == "wired") options.protocol = spec::ProtocolKind::kHardwiredPort;
      else {
        std::fprintf(stderr, "unknown protocol '%s'\n", p.c_str());
        return 2;
      }
    } else if (arg == "--fixed-delay") {
      options.fixed_delay_cycles = std::atoi(next_value("--fixed-delay"));
    } else if (arg == "--arbitrate") {
      options.arbitrate = true;
    } else if (arg == "--max-time") {
      max_time = std::strtoull(next_value("--max-time"), nullptr, 10);
    } else if (arg == "--metrics") {
      metrics_path = next_value("--metrics");
    } else if (arg == "--report") {
      report_path = next_value("--report");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv0);
    } else if (target.empty()) {
      target = arg;
    } else {
      return usage(argv0);
    }
  }
  if (target.empty()) return usage(argv0);

  Result<spec::System> loaded = load_check_target(target, options);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", target.c_str(),
                 loaded.status().to_string().c_str());
    return 1;
  }
  spec::System system = std::move(loaded).value();

  obs::MetricsRegistry registry;
  obs::ObsContext obs;
  if (!metrics_path.empty()) obs.metrics = &registry;
  options.obs = obs;
  options.run_checker = false;  // conformance wants the diff, not the gate

  core::InterfaceSynthesizer synth(options);
  Result<core::SynthesisReport> synthesized = synth.run(system);
  if (!synthesized.is_ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 synthesized.status().to_string().c_str());
    return 1;
  }

  sim::SimulationRun run =
      sim::simulate(system, max_time, /*trace=*/true, obs);
  if (!run.result.status.is_ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 run.result.status.to_string().c_str());
    return 1;
  }

  const check::ConformanceReport report =
      check::mine_and_diff(system, run.kernel->trace(), obs);

  std::ostringstream summary;
  summary << "conform " << (report.clean() ? "clean" : "FAILED") << ": "
          << report.lanes_mined << " lane(s), " << report.transactions_mined
          << " transaction(s), " << report.edges_checked << " edge(s), "
          << report.disagreements.size() << " disagreement(s), "
          << report.skipped.size() << " skipped (engine "
          << sim::engine_name(run.interpreter->engine()) << ")";
  std::string body = report.to_string();
  if (!body.empty()) body += "\n";
  body += summary.str();
  body += "\n";

  if (!report_path.empty() && !write_file(report_path, body)) return 1;
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, registry.snapshot().to_json())) return 1;
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }

  std::printf("%s", body.c_str());
  return report.clean() ? 0 : 1;
}

int explore_main(int argc, char** argv, const char* argv0) {
  std::string spec_path;
  std::string report_path;
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  explore::ExploreOptions options;
  options.top_k = 0;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = std::atoi(next_value("--threads"));
    } else if (arg == "--top-k") {
      options.top_k = std::atoi(next_value("--top-k"));
    } else if (arg == "--protocols") {
      options.space.protocols.clear();
      std::string list = next_value("--protocols");
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (name == "full")
          options.space.protocols.push_back(spec::ProtocolKind::kFullHandshake);
        else if (name == "half")
          options.space.protocols.push_back(spec::ProtocolKind::kHalfHandshake);
        else if (name == "fixed")
          options.space.protocols.push_back(spec::ProtocolKind::kFixedDelay);
        else {
          std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
          return 2;
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--widths") {
      const std::string range = next_value("--widths");
      const std::size_t colon = range.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--widths wants LO:HI\n");
        return 2;
      }
      options.space.min_width = std::atoi(range.substr(0, colon).c_str());
      options.space.max_width = std::atoi(range.substr(colon + 1).c_str());
    } else if (arg == "--fixed-delay") {
      options.space.fixed_delay_cycles = std::atoi(next_value("--fixed-delay"));
    } else if (arg == "--max-clocks") {
      const std::string constraint = next_value("--max-clocks");
      const std::size_t eq = constraint.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--max-clocks wants PROC=N\n");
        return 2;
      }
      options.max_execution_clocks[constraint.substr(0, eq)] =
          std::atoll(constraint.substr(eq + 1).c_str());
    } else if (arg == "--alt-groupings") {
      options.space.alternative_groupings = true;
    } else if (arg == "--sim-max-time") {
      options.sim_max_time =
          std::strtoull(next_value("--sim-max-time"), nullptr, 10);
    } else if (arg == "--report") {
      report_path = next_value("--report");
    } else if (arg == "--json") {
      json_path = next_value("--json");
    } else if (arg == "--metrics") {
      metrics_path = next_value("--metrics");
    } else if (arg == "--chrome-trace") {
      trace_path = next_value("--chrome-trace");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv0);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv0);
    }
  }
  if (spec_path.empty()) return usage(argv0);

  Result<spec::System> parsed = spec::parse_system_file(spec_path);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  spec::System system = std::move(parsed).value();

  // The explorer falls back to a private registry when none is attached,
  // so ExplorationResult::metrics serves --metrics either way; the trace
  // sink records only when --chrome-trace asked for it.
  obs::TraceSink trace_sink;
  if (!trace_path.empty()) options.obs.trace = &trace_sink;

  explore::Explorer explorer(system, options);
  Result<explore::ExplorationResult> result = explorer.run();
  if (!result.is_ok()) {
    std::fprintf(stderr, "exploration failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }

  const std::string markdown =
      explore::render_exploration_markdown(system, options, *result);
  std::printf("%s", markdown.c_str());

  if (!report_path.empty()) {
    if (!write_file(report_path, markdown)) return 1;
    std::printf("wrote exploration report to %s\n", report_path.c_str());
  }
  if (!json_path.empty()) {
    if (!write_file(json_path,
                    explore::render_exploration_json(system, options,
                                                     *result))) {
      return 1;
    }
    std::printf("wrote exploration JSON to %s\n", json_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, result->metrics.to_json())) return 1;
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!write_file(trace_path, trace_sink.to_json())) return 1;
    std::printf("wrote chrome trace (%zu events) to %s\n",
                trace_sink.event_count(), trace_path.c_str());
  }

  // Exit nonzero when a validated survivor failed co-simulation: the
  // estimates recommended something the sim refutes.
  for (std::size_t index : result->validated) {
    const explore::PointResult& point = result->points[index];
    if (!point.sim_ok || !point.equivalent) return 1;
  }
  return 0;
}

/// Shared flag parsing for the batch/serve front ends.
struct ServeCliOptions {
  serve::ServiceOptions service;
  std::string manifest_path;  // batch only
  std::string responses_path;
  std::string metrics_text_path;
  std::string trace_path;      // service-wide Chrome trace
  std::string event_log_path;  // structured JSONL event log
  int repeat = 1;
  bool timing = true;
};

int parse_serve_flags(int argc, char** argv, const char* argv0, bool batch,
                      ServeCliOptions& out) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workers") {
      out.service.workers = std::atoi(next_value("--workers"));
    } else if (arg == "--queue") {
      out.service.queue_capacity =
          static_cast<std::size_t>(std::atoi(next_value("--queue")));
    } else if (arg == "--deadline-ms") {
      out.service.default_deadline_ms =
          std::strtoull(next_value("--deadline-ms"), nullptr, 10);
    } else if (arg == "--repeat" && batch) {
      out.repeat = std::atoi(next_value("--repeat"));
      if (out.repeat < 1) out.repeat = 1;
    } else if (arg == "--responses" && batch) {
      out.responses_path = next_value("--responses");
    } else if (arg == "--metrics-text") {
      out.metrics_text_path = next_value("--metrics-text");
    } else if (arg == "--no-timing") {
      out.timing = false;
    } else if (arg == "--trace") {
      out.trace_path = next_value("--trace");
    } else if (arg == "--event-log") {
      out.event_log_path = next_value("--event-log");
    } else if (arg == "--watchdog-ms") {
      out.service.watchdog_poll_ms =
          std::strtoull(next_value("--watchdog-ms"), nullptr, 10);
    } else if (arg == "--trace-dir") {
      out.service.slow_trace_dir = next_value("--trace-dir");
    } else if (arg == "--slow-trace-ms") {
      out.service.slow_trace_ms =
          std::strtoull(next_value("--slow-trace-ms"), nullptr, 10);
    } else if (arg == "--slow-trace-keep") {
      out.service.slow_trace_keep =
          static_cast<std::size_t>(std::atoi(next_value("--slow-trace-keep")));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv0);
    } else if (batch && out.manifest_path.empty()) {
      out.manifest_path = arg;
    } else {
      return usage(argv0);
    }
  }
  if (batch && out.manifest_path.empty()) return usage(argv0);
  if (out.service.slow_trace_ms > 0 && out.service.slow_trace_dir.empty()) {
    std::fprintf(stderr, "--slow-trace-ms requires --trace-dir\n");
    return 2;
  }
  return -1;  // parsed OK (not a valid exit code)
}

/// Attach the optional service-wide trace sink and event log (owned by
/// the caller's frame) to the service options.
void attach_serve_observability(ServeCliOptions& cli, obs::TraceSink& trace,
                                obs::EventLog& event_log) {
  if (!cli.trace_path.empty()) {
    cli.service.trace = &trace;
    trace.set_thread_name("submit");
  }
  if (!cli.event_log_path.empty()) cli.service.event_log = &event_log;
}

/// After the service stops: self-validate and write the service trace,
/// and write the event log. Nonzero on any failure.
int write_serve_observability(const ServeCliOptions& cli,
                              const obs::TraceSink& trace,
                              const obs::EventLog& event_log) {
  if (!cli.trace_path.empty()) {
    const std::string json = trace.to_json();
    std::string error;
    if (!obs::validate_trace_json(json, &error)) {
      std::fprintf(stderr, "internal: service trace invalid: %s\n",
                   error.c_str());
      return 1;
    }
    if (!write_file(cli.trace_path, json)) return 1;
    std::fprintf(stderr, "wrote service trace to %s (%zu events)\n",
                 cli.trace_path.c_str(), trace.event_count());
  }
  if (!cli.event_log_path.empty()) {
    std::string error;
    if (!event_log.write_jsonl(cli.event_log_path, &error)) {
      std::fprintf(stderr, "cannot write event log: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote event log to %s (%zu events)\n",
                 cli.event_log_path.c_str(), event_log.size());
  }
  return 0;
}

/// One manifest/stdin line -> either a request for the pool or an
/// immediate structured parse-error response (the id is salvaged from
/// the malformed object when possible, so callers can correlate).
std::future<serve::Response> dispatch_line(serve::Service& service,
                                           const std::string& line) {
  Result<serve::Json> json = serve::parse_json(line);
  serve::Request request;
  if (json.is_ok()) {
    Result<serve::Request> parsed = serve::parse_request(*json);
    if (parsed.is_ok()) return service.submit(std::move(*parsed));
    if (const serve::Json* id = json->find("id"); id && id->is_string()) {
      request.id = id->as_string();
    }
    std::promise<serve::Response> ready;
    serve::Response response;
    response.id = request.id;
    response.ok = false;
    response.error = {"invalid_request", parsed.status().message()};
    ready.set_value(std::move(response));
    return ready.get_future();
  }
  std::promise<serve::Response> ready;
  serve::Response response;
  response.ok = false;
  response.error = {"invalid_request", json.status().message()};
  ready.set_value(std::move(response));
  return ready.get_future();
}

int write_metrics_text(const serve::Service& service, const std::string& path) {
  if (path.empty()) return 0;
  if (!write_file(path, service.metrics_text())) return 1;
  std::fprintf(stderr, "wrote metrics snapshot to %s\n", path.c_str());
  return 0;
}

int batch_main(int argc, char** argv, const char* argv0) {
  ServeCliOptions cli;
  if (int rc = parse_serve_flags(argc, argv, argv0, /*batch=*/true, cli);
      rc >= 0) {
    return rc;
  }

  std::ifstream manifest(cli.manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "cannot read manifest %s\n",
                 cli.manifest_path.c_str());
    return 1;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(manifest, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    lines.push_back(line);
  }

  std::ofstream responses_file;
  std::ostream* out = &std::cout;
  if (!cli.responses_path.empty()) {
    responses_file.open(cli.responses_path);
    if (!responses_file) {
      std::fprintf(stderr, "cannot write %s\n", cli.responses_path.c_str());
      return 1;
    }
    out = &responses_file;
  }

  obs::TraceSink trace_sink;
  obs::EventLog event_log;
  attach_serve_observability(cli, trace_sink, event_log);

  serve::Service service(cli.service);
  service.start();
  bool all_ok = true;
  for (int pass = 0; pass < cli.repeat; ++pass) {
    // The manifest is a work list, not a load test: keep at most the
    // queue capacity outstanding so nothing gets admission-rejected,
    // and emit responses in manifest order.
    std::deque<std::future<serve::Response>> window;
    std::size_t emitted = 0;
    auto drain_one = [&] {
      serve::Response response = window.front().get();
      window.pop_front();
      ++emitted;
      all_ok = all_ok && response.ok;
      *out << serve::render_response(response, cli.timing) << "\n";
    };
    for (const std::string& line : lines) {
      if (window.size() >= cli.service.queue_capacity) drain_one();
      window.push_back(dispatch_line(service, line));
    }
    while (!window.empty()) drain_one();
    std::fprintf(stderr, "pass %d: %zu request(s) drained\n", pass + 1,
                 emitted);
  }
  service.stop();
  if (write_metrics_text(service, cli.metrics_text_path) != 0) return 1;
  if (write_serve_observability(cli, trace_sink, event_log) != 0) return 1;
  return all_ok ? 0 : 1;
}

int serve_main(int argc, char** argv, const char* argv0) {
  ServeCliOptions cli;
  if (int rc = parse_serve_flags(argc, argv, argv0, /*batch=*/false, cli);
      rc >= 0) {
    return rc;
  }

  obs::TraceSink trace_sink;
  obs::EventLog event_log;
  attach_serve_observability(cli, trace_sink, event_log);

  serve::Service service(cli.service);
  service.start();
  // Responses stream back in request order; a full queue answers with
  // admission_rejected immediately (that's the back-pressure signal —
  // the loop never blocks the reader on a slow request).
  std::deque<std::future<serve::Response>> window;
  auto drain_ready = [&](bool block) {
    while (!window.empty() &&
           (block || window.front().wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      std::printf("%s\n", serve::render_response(window.front().get(),
                                                 cli.timing)
                              .c_str());
      std::fflush(stdout);
      window.pop_front();
    }
  };
  for (std::string line; std::getline(std::cin, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    window.push_back(dispatch_line(service, line));
    drain_ready(/*block=*/false);
  }
  drain_ready(/*block=*/true);
  service.stop();
  if (write_metrics_text(service, cli.metrics_text_path) != 0) return 1;
  return write_serve_observability(cli, trace_sink, event_log);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "explore") == 0) {
    return explore_main(argc - 2, argv + 2, argv[0]);
  }
  if (std::strcmp(argv[1], "check") == 0) {
    return check_main(argc - 2, argv + 2, argv[0]);
  }
  if (std::strcmp(argv[1], "conform") == 0) {
    return conform_main(argc - 2, argv + 2, argv[0]);
  }
  if (std::strcmp(argv[1], "batch") == 0) {
    return batch_main(argc - 2, argv + 2, argv[0]);
  }
  if (std::strcmp(argv[1], "serve") == 0) {
    return serve_main(argc - 2, argv + 2, argv[0]);
  }

  std::string spec_path;
  std::string vhdl_path;
  std::string vcd_path;
  std::string report_path;
  std::string metrics_path;
  std::string trace_path;
  bool print_spec = false;
  bool cosim = true;
  std::uint64_t max_time = 10'000'000;
  core::SynthesisOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--protocol") {
      const std::string p = next_value("--protocol");
      if (p == "full") options.protocol = spec::ProtocolKind::kFullHandshake;
      else if (p == "half") options.protocol = spec::ProtocolKind::kHalfHandshake;
      else if (p == "fixed") options.protocol = spec::ProtocolKind::kFixedDelay;
      else if (p == "wired") options.protocol = spec::ProtocolKind::kHardwiredPort;
      else {
        std::fprintf(stderr, "unknown protocol '%s'\n", p.c_str());
        return 2;
      }
    } else if (arg == "--fixed-delay") {
      options.fixed_delay_cycles = std::atoi(next_value("--fixed-delay"));
    } else if (arg == "--arbitrate") {
      options.arbitrate = true;
    } else if (arg == "--emit-vhdl") {
      vhdl_path = next_value("--emit-vhdl");
    } else if (arg == "--vcd") {
      vcd_path = next_value("--vcd");
    } else if (arg == "--report") {
      report_path = next_value("--report");
    } else if (arg == "--metrics") {
      metrics_path = next_value("--metrics");
    } else if (arg == "--chrome-trace") {
      trace_path = next_value("--chrome-trace");
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--no-cosim") {
      cosim = false;
    } else if (arg == "--max-time") {
      max_time = std::strtoull(next_value("--max-time"), nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  // ---- parse -------------------------------------------------------------
  Result<spec::System> parsed = spec::parse_system_file(spec_path);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().to_string().c_str());
    return 1;
  }
  spec::System original = std::move(parsed).value();
  std::printf("parsed system '%s': %zu variables, %zu processes, "
              "%zu channels, %zu bus group(s)\n",
              original.name().c_str(), original.variables().size(),
              original.processes().size(), original.channels().size(),
              original.buses().size());

  // ---- synthesize ----------------------------------------------------------
  // Collect metrics whenever any consumer wants them (--metrics, or the
  // report's Metrics section); record trace events only on --chrome-trace.
  obs::MetricsRegistry registry;
  obs::TraceSink trace_sink;
  obs::ObsContext obs;
  if (!metrics_path.empty() || !report_path.empty()) obs.metrics = &registry;
  if (!trace_path.empty()) obs.trace = &trace_sink;
  options.obs = obs;

  spec::System refined = original.clone(original.name() + "_refined");
  core::InterfaceSynthesizer synth(options);
  Result<core::SynthesisReport> report = synth.run(refined);
  if (!report.is_ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }

  for (const auto& bus : refined.buses()) {
    std::printf("bus %s: %d data + %d control + %d id = %d wires, "
                "protocol %s%s\n",
                bus->name.c_str(), bus->width, bus->control_lines,
                bus->id_bits, bus->total_wires(),
                protocol_kind_name(bus->protocol),
                bus->arbitrated ? ", arbitrated" : "");
  }
  for (const core::BusReport& r : report->buses) {
    if (r.generation.selected_width > 0) {
      std::printf("  %s width search: selected %d of %d channel bits "
                  "(reduction %.1f%%)\n",
                  r.bus.c_str(), r.generation.selected_width,
                  r.generation.total_channel_bits,
                  r.generation.interconnect_reduction * 100);
    }
  }
  if (!report->split_buses.empty()) {
    std::printf("  note: %zu group(s) split for Eq. 1 feasibility\n",
                report->split_buses.size());
  }

  if (print_spec) {
    std::printf("\n%s\n", spec::print_system(refined).c_str());
  }

  // ---- co-simulate --------------------------------------------------------
  int exit_code = 0;
  std::optional<core::EquivalenceReport> equivalence;
  if (cosim) {
    Result<core::EquivalenceReport> eq =
        core::check_equivalence(original, refined, max_time, {}, obs);
    if (!eq.is_ok()) {
      std::fprintf(stderr, "co-simulation failed: %s\n",
                   eq.status().to_string().c_str());
      return 1;
    }
    std::printf("co-simulation: original t=%llu, refined t=%llu, "
                "equivalent: %s\n",
                static_cast<unsigned long long>(eq->original_time),
                static_cast<unsigned long long>(eq->refined_time),
                eq->equivalent ? "yes" : "NO");
    for (const std::string& mismatch : eq->mismatches) {
      std::printf("  mismatch: %s\n", mismatch.c_str());
    }
    if (!eq->equivalent) exit_code = 1;
    equivalence = std::move(eq).value();
  }

  if (!vcd_path.empty()) {
    sim::SimulationRun run = sim::simulate(refined, max_time, /*trace=*/true);
    if (!run.result.status.is_ok()) {
      std::fprintf(stderr, "VCD run failed: %s\n",
                   run.result.status.to_string().c_str());
      return 1;
    }
    Status vcd_status = sim::write_vcd(*run.kernel, vcd_path);
    if (!vcd_status.is_ok()) {
      std::fprintf(stderr, "%s\n", vcd_status.to_string().c_str());
      return 1;
    }
    std::printf("wrote waveform (%zu changes) to %s\n",
                run.kernel->trace().size(), vcd_path.c_str());
  }

  if (!report_path.empty()) {
    // Measured traffic needs a traced run (full handshake only).
    std::vector<protocol::BusTraffic> traffic;
    if (options.protocol == spec::ProtocolKind::kFullHandshake) {
      sim::SimulationRun run =
          sim::simulate(refined, max_time, /*trace=*/true);
      if (run.result.status.is_ok()) {
        Result<std::vector<protocol::BusTraffic>> analyzed =
            protocol::analyze_trace(refined, run.kernel->trace(),
                                    run.result.end_time);
        if (analyzed.is_ok()) traffic = std::move(analyzed).value();
      }
    }
    core::ReportInputs inputs;
    inputs.refined = &refined;
    inputs.synthesis = &*report;
    inputs.equivalence = equivalence ? &*equivalence : nullptr;
    inputs.traffic = traffic.empty() ? nullptr : &traffic;
    obs::MetricsSnapshot snapshot;
    if (obs.metrics) {
      snapshot = registry.snapshot();
      inputs.metrics = &snapshot;
    }
    std::ofstream out(report_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
      return 1;
    }
    out << core::render_markdown_report(inputs);
    std::printf("wrote synthesis report to %s\n", report_path.c_str());
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    out << registry.snapshot().to_json();
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    out << trace_sink.to_json();
    std::printf("wrote chrome trace (%zu events) to %s\n",
                trace_sink.event_count(), trace_path.c_str());
  }

  // ---- emit ---------------------------------------------------------------
  if (!vhdl_path.empty()) {
    codegen::VhdlEmitter emitter;
    std::ofstream out(vhdl_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", vhdl_path.c_str());
      return 1;
    }
    out << emitter.emit_system(refined);
    std::printf("wrote refined VHDL to %s\n", vhdl_path.c_str());
  }
  return exit_code;
}
