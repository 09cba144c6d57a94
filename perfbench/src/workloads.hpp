// perfbench/src/workloads.hpp
//
// The three workloads, driven only through the program's public entry
// points (serve::Service::submit, explore::Explorer::run), and the inputs
// they share with the traced replay.
//
//   synth_cold   closed loop, two requests outstanding against a 2-worker
//                Service; every request carries a distinct generated spec.
//   serve_open   open loop, seeded Poisson arrivals at a fixed rate into a
//                2-worker Service, drawn from examples/serve/manifest.jsonl.
//   explore_flc  closed loop of Explorer::run on suite::make_flc_full()
//                with two threads.
//
// Failed, refused and incorrect operations are charged the workload's
// request deadline as their latency, so turning a failure into a success
// can never read as a latency regression.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "explore/explorer.hpp"
#include "measure.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "spec_gen.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  double deadline_ms;  ///< charged to every failed operation
  double limit_ms;     ///< latency limit behind slo_miss_ratio
};

/// Fixed per workload; README.md gives the reasons.
const WorkloadSpec* find_workload(const std::string& name);

// serve_open's open-loop arrival rate, requests per second.
constexpr double kServeOpenRate = 400;
// Workers in every Service the benchmark starts, and explore threads.
constexpr int kWorkers = 2;

/// One operation as the client saw it.
struct Op {
  double latency_ms = 0;  ///< from submit (closed) or scheduled send (open)
  bool ok = false;        ///< succeeded with a correct output
  bool incorrect = false; ///< output failed its check
  std::string code;       ///< error code, or "wrong_output", when !ok
  std::uint64_t queue_us = 0;    ///< Response.queue_us (serve workloads)
  std::uint64_t execute_us = 0;  ///< Response.elapsed_us (serve workloads)
  double late_ms = 0;     ///< generator lateness (open loop)
  std::size_t input = 0;  ///< index of the input this operation ran
  Clock::time_point sent{};  ///< submitted (or started, for explore_flc)
  Clock::time_point done{};  ///< completion observed
};

/// What an operation answered: its error code ("" on success) and its
/// report, the output the replay must reproduce byte for byte.
struct Answer {
  std::string code;
  std::string report;
  bool operator==(const Answer&) const = default;
};

struct WorkloadRun {
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<Op> ops;
  double wall_s = 0;  ///< first send to last completion
  double cpu_ms_per_op = 0;  ///< median over chunks (see CpuPerOp)
  /// Answers by input index, for the replay's byte comparison.
  std::map<std::size_t, Answer> answers;
  /// Service counters after the run (serve workloads).
  ifsyn::obs::MetricsSnapshot service_metrics;
  /// Explorer registry of the last sweep (explore_flc).
  ifsyn::obs::MetricsSnapshot explore_metrics;
  std::vector<std::string> notes;  ///< printed with the results
};

// ---- inputs, shared with the replay ---------------------------------------

ifsyn::serve::Request synth_request(const GeneratedSpec& spec,
                                    std::size_t index, double deadline_ms);

/// The manifest's requests, in file order.
std::vector<ifsyn::serve::Request> load_manifest();

/// serve_open's seeded schedule: send offsets (seconds from the start)
/// and the manifest entry each one sends.
struct Arrival {
  double at_s = 0;
  std::size_t entry = 0;
};
std::vector<Arrival> open_schedule(std::uint64_t seed, double rate,
                                   double seconds, std::size_t entries,
                                   std::size_t max_arrivals);

/// The FLC sweep's options (bench_explore_scaling's): full/half/fixed,
/// alternative groupings, top-8 validation, FLC calibration.
ifsyn::explore::ExploreOptions flc_explore_options(int threads);

// ---- untraced runs ----------------------------------------------------------

/// How long a run goes on, and what it keeps. The replay bounds a run by
/// operation count to get a fixed input set, and keeps the answers to
/// compare against; a timed run keeps none, so its memory stays flat.
struct RunLimits {
  double seconds = 0;
  std::size_t max_ops = static_cast<std::size_t>(-1);
  bool keep_answers = false;
};

WorkloadRun run_synth_cold(std::uint64_t seed, const RunLimits& limits);
WorkloadRun run_serve_open(std::uint64_t seed, const RunLimits& limits);
WorkloadRun run_explore_flc(const RunLimits& limits);

}  // namespace perfbench
