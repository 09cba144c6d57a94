// ifsyn_perfbench: the repository's benchmark binary.
//
//   ifsyn_perfbench --workload synth_cold|serve_open|explore_flc
//                   --seed N --seconds S --trace 0|1 [--out DIR]
//
// Run from the repository root (serve_open reads
// examples/serve/manifest.jsonl). With --trace 0 it measures the workload
// for S seconds and prints the end-to-end metrics; with --trace 1 it runs
// the traced per-layer replay (see replay.hpp) and prints the per-layer
// metrics, writing the Chrome trace to DIR. Either way the last line of
// stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage or environment error (no result line then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "replay.hpp"
#include "sim/bytecode/optimizer.hpp"
#include "sim/interpreter.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "ifsyn_perfbench: %s\nusage: ifsyn_perfbench --workload "
               "synth_cold|serve_open|explore_flc --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!end || *end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!find_workload(args.workload)) usage("unknown workload");
  if (!have_seed) usage("--seed needs a whole number");
  if (args.seconds <= 0) usage("--seconds is required");
  if (args.trace < 0) usage("--trace is required");
  return args;
}

/// Each of these variables silently changes the program being measured.
void refuse_altered_program() {
  for (const char* name :
       {"IFSYN_SIM_ENGINE", "IFSYN_SIM_OPT", "IFSYN_BENCH_SMOKE"}) {
    if (std::getenv(name)) {
      std::fprintf(stderr,
                   "ifsyn_perfbench: refusing to run with %s set: it changes "
                   "the program being measured. Unset it and run again.\n",
                   name);
      std::exit(2);
    }
  }
}

void print_pinning(const char* when) {
  std::printf("[%s] sim_engine=%s opt_level=%d build=%s hardware_threads=%u "
              "effective_parallelism=%.3f\n",
              when, ifsyn::sim::engine_name(ifsyn::sim::engine_from_env()),
              static_cast<int>(ifsyn::sim::bytecode::opt_level_from_env()),
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              effective_parallelism());
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_end_to_end(const Args& args) {
  const WorkloadSpec& w = *find_workload(args.workload);
  RunLimits limits;
  limits.seconds = args.seconds;
  WorkloadRun run;
  if (w.name == "synth_cold") {
    run = run_synth_cold(args.seed, limits);
  } else if (w.name == "serve_open") {
    run = run_serve_open(args.seed, limits);
  } else {
    run = run_explore_flc(limits);
  }

  std::vector<double> latencies;
  std::size_t failed = 0, slo_miss = 0;
  bool correct = !run.ops.empty();
  for (const Op& op : run.ops) {
    latencies.push_back(op.latency_ms);
    if (!op.ok) ++failed;
    if (!op.ok || op.latency_ms > w.limit_ms) ++slo_miss;
    if (op.incorrect) correct = false;
  }
  const std::size_t attempted = run.ops.size();
  const std::size_t succeeded = attempted - failed;
  const TailPoint tail = tail_of(latencies);

  std::vector<Metric> metrics = {
      {"setup_s", median(run.setup_s), "s"},
      {"latency_p50_ms", median(latencies), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"goodput_ops_s", succeeded / run.wall_s, "ops/s"},
      {"cpu_ms_per_op", run.cpu_ms_per_op, "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"failed_ratio",
       attempted ? static_cast<double>(failed) / attempted : 0, "ratio"},
      {"slo_miss_ratio",
       attempted ? static_cast<double>(slo_miss) / attempted : 0, "ratio"},
  };

  for (const std::string& note : run.notes) std::printf("%s\n", note.c_str());
  std::printf("%s: %zu attempted, %zu succeeded, %zu failed over %.3f s; "
              "deadline %.0f ms (charged to failures), latency limit %.0f ms\n",
              w.name.c_str(), attempted, succeeded, failed, run.wall_s,
              w.deadline_ms, w.limit_ms);
  for (const Metric& m : metrics) {
    std::printf("  %-20s %14.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "latency_tail_ms") {
      std::printf("  (p%.1f of %zu, failures charged)", tail.percentile,
                  tail.samples);
    } else if (m.name == "failed_ratio" || m.name == "slo_miss_ratio") {
      std::printf("  (base %zu attempted)", attempted);
    }
    std::printf("\n");
  }
  if (!correct) std::printf("OUTPUT CHECK FAILED\n");

  // The result line carries the end-to-end metrics BENCHMARK.json gates:
  // the ones that repeat from run to run on a shared host (README.md,
  // "What BENCHMARK.json gates"). The rest are printed above.
  std::vector<Metric> gated;
  for (const Metric& m : metrics) {
    if (m.name == "setup_s" || m.name == "cpu_ms_per_op" ||
        m.name == "peak_rss_mb") {
      gated.push_back(m);
    }
  }
  print_pinning("after");
  print_json(correct, attempted, failed, gated);
  return correct ? 0 : 1;
}

int run_trace(const Args& args) {
  std::filesystem::create_directories(args.out);
  const std::string path = args.out + "/trace_" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".json";
  const TracedRun run = run_traced(args.workload, args.seed, path);
  for (const std::string& line : run.lines) std::printf("%s\n", line.c_str());
  for (const Metric& m : run.metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!run.correct) std::printf("REPLAY CHECK FAILED\n");
  print_pinning("after");
  print_json(run.correct, run.attempted, run.failed, run.metrics);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  refuse_altered_program();
  const Args args = parse_args(argc, argv);
  try {
    print_pinning("before");
    return args.trace ? run_trace(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ifsyn_perfbench: %s\n", e.what());
    return 2;
  }
}
