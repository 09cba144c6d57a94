#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "explore/report.hpp"
#include "measure.hpp"
#include "serve/json.hpp"
#include "serve/spec_intern.hpp"
#include "suite/flc.hpp"

namespace perfbench {
namespace {

using ifsyn::serve::Request;
using ifsyn::serve::Response;
using ifsyn::serve::Service;
using ifsyn::serve::ServiceOptions;

// Every deadline exceeds every successful latency seen while the workload
// was designed by more than 10x, so charging it to a failure always costs
// more than any success could.
const WorkloadSpec kWorkloads[] = {
    {"synth_cold", 2000, 100},
    {"serve_open", 2000, 50},
    {"explore_flc", 20000, 1000},
};

constexpr const char* kManifest = "examples/serve/manifest.jsonl";

// Successful operations per cpu_ms_per_op chunk: about a second of work
// each, so a 20 s run yields some twenty chunks (about five per sweep for
// explore_flc, whose sweeps take a quarter second).
constexpr std::size_t kSynthCpuChunk = 500;
constexpr std::size_t kServeCpuChunk = 400;
constexpr std::size_t kExploreCpuChunk = 4;

// Length of each synth_cold segment (one Service each), wall seconds,
// and of each serve_open segment, schedule seconds.
constexpr double kSynthSegmentS = 0.5;
constexpr double kServeSegmentS = 1.25;

std::unique_ptr<Service> start_service() {
  ServiceOptions options;
  options.workers = kWorkers;
  auto service = std::make_unique<Service>(options);
  service->start();
  return service;
}

Clock::time_point deadline_after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Structured refusals a request may end in; any other error is a broken
/// output. "unsupported" is what synthesis answers when bus generation
/// auto-splits a group so that a variable's read and write channels land
/// on different buses (README.md, "Recorded defects").
bool is_refusal(const std::string& code) {
  return code == "not_equivalent" || code == "check_failed" ||
         code == "infeasible" || code == "unsupported" ||
         code == "admission_rejected" || code == "deadline_exceeded";
}

void charge_failure(Op& op, const std::string& code, bool incorrect,
                    double deadline_ms) {
  op.ok = false;
  op.incorrect = incorrect;
  op.code = code;
  op.latency_ms = deadline_ms;
}

/// The recorded defects (README.md). synth_cold's measured specs are built
/// so that every request succeeds; this fixed probe, run after the
/// measurement, sends generated specs the way the defects show and reports
/// what they answer: concurrent-master specs without arbitration, and
/// specs without the think time that keeps their channels on one bus.
std::string probe_defects(Service& service, double deadline_ms) {
  constexpr std::uint64_t kProbeSeed = 0xdefec7;
  constexpr std::size_t kProbeSpecs = 256;
  constexpr std::size_t kBatch = 32;  // within the Service's request queue
  std::map<std::string, int> outcomes;
  for (std::size_t first = 0; first < kProbeSpecs; first += kBatch) {
    std::vector<std::pair<std::string, std::future<Response>>> batch;
    for (std::size_t i = first; i < first + kBatch; ++i) {
      const GeneratedSpec spec =
          generate_spec(kProbeSeed, i, /*fit_one_bus=*/false);
      Request request = synth_request(spec, i, deadline_ms);
      request.options.arbitrate.reset();
      batch.emplace_back(spec.concurrent_masters ? "concurrent_masters"
                                                 : "serial_masters",
                         service.submit(std::move(request)));
    }
    for (auto& [shape, future] : batch) {
      const Response response = future.get();
      ++outcomes[shape + "." + (response.ok ? "ok" : response.error.code)];
    }
  }
  std::ostringstream os;
  os << "defect probe, not measured (" << kProbeSpecs
     << " fixed specs, no arbitration, no think time):";
  for (const auto& [outcome, count] : outcomes) {
    os << " " << outcome << "=" << count;
  }
  return os.str();
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Request synth_request(const GeneratedSpec& spec, std::size_t index,
                      double deadline_ms) {
  Request request;
  request.id = "gen-" + std::to_string(index);
  request.op = ifsyn::serve::RequestOp::kSynth;
  request.spec_text = spec.text;
  request.options.protocol = spec.protocol;
  // Two concurrently active masters need the arbitrated bus; without it
  // they come back not_equivalent (ROADMAP open item 1, which the defect
  // probe records). Every other request keeps the request default.
  if (spec.concurrent_masters) request.options.arbitrate = true;
  request.deadline_ms = static_cast<std::uint64_t>(deadline_ms);
  return request;
}

std::vector<Request> load_manifest() {
  std::ifstream in(kManifest);
  if (!in) {
    throw std::runtime_error(std::string("cannot read ") + kManifest +
                             " (run from the repository root)");
  }
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto json = ifsyn::serve::parse_json(line);
    if (!json.is_ok()) throw std::runtime_error(json.status().message());
    auto request = ifsyn::serve::parse_request(*json);
    if (!request.is_ok()) throw std::runtime_error(request.status().message());
    requests.push_back(std::move(request).value());
  }
  if (requests.empty()) throw std::runtime_error("empty manifest");
  return requests;
}

std::vector<Arrival> open_schedule(std::uint64_t seed, double rate,
                                   double seconds, std::size_t entries,
                                   std::size_t max_arrivals) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, entries - 1);
  std::vector<Arrival> schedule;
  double t = 0;
  while (schedule.size() < max_arrivals) {
    t += gap(rng);
    if (t >= seconds) break;
    schedule.push_back({t, pick(rng)});
  }
  return schedule;
}

ifsyn::explore::ExploreOptions flc_explore_options(int threads) {
  ifsyn::explore::ExploreOptions options;
  options.space.protocols = {ifsyn::spec::ProtocolKind::kFullHandshake,
                             ifsyn::spec::ProtocolKind::kHalfHandshake,
                             ifsyn::spec::ProtocolKind::kFixedDelay};
  options.space.alternative_groupings = true;
  options.top_k = 8;
  options.threads = threads;
  options.compute_cycles_override = {
      {"EVAL_R3", ifsyn::suite::FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", ifsyn::suite::FlcCalibration::kConvR2ComputeCycles},
  };
  return options;
}

// ---- synth_cold -------------------------------------------------------------

WorkloadRun run_synth_cold(std::uint64_t seed, const RunLimits& limits) {
  const WorkloadSpec& w = *find_workload("synth_cold");
  WorkloadRun run;
  std::unique_ptr<Service> service;
  const auto set_up = [&] {
    service.reset();  // a Service installs process-wide caches: one at a time
    const auto t0 = Clock::now();
    service = start_service();
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  };

  // Reserved up front so the op log never reallocates mid-run: peak RSS
  // then tracks the program, not how many operations the run completed.
  run.ops.reserve(1 << 16);
  std::mutex mu;  // guards run.ops, run.answers and the draw tallies
  std::atomic<std::size_t> next{0};
  std::map<std::string, int> tally;
  CpuPerOp cpu(kSynthCpuChunk);
  const auto start = Clock::now();
  const auto stop_at = deadline_after(start, limits.seconds);

  // Two clients, each with one request in flight: two outstanding in all.
  const auto client = [&](Clock::time_point segment_end) {
    while (Clock::now() < segment_end) {
      const std::size_t index = next.fetch_add(1);
      if (index >= limits.max_ops) break;
      const GeneratedSpec spec = generate_spec(seed, index);
      Request request = synth_request(spec, index, w.deadline_ms);
      const std::string expected_hash =
          ifsyn::serve::content_hash(request.spec_text);

      const auto sent = Clock::now();
      const Response response = service->submit(std::move(request)).get();
      Op op;
      op.sent = sent;
      op.done = Clock::now();
      op.latency_ms = ms_between(sent, op.done);
      op.queue_us = response.queue_us;
      op.execute_us = response.elapsed_us;
      op.input = index;

      const bool pass =
          response.report.find("functional equivalence: **PASS**") !=
          std::string::npos;
      if (response.ok) {
        op.ok = pass && response.spec_hash == expected_hash;
        if (!op.ok) charge_failure(op, "wrong_output", true, w.deadline_ms);
        if (op.ok) cpu.done();
      } else {
        // A not_equivalent response must carry the failing co-simulation
        // report; other refusals carry no report.
        const bool consistent =
            response.error.code != "not_equivalent" ||
            response.report.find("functional equivalence: **FAIL**") !=
                std::string::npos;
        charge_failure(op, response.error.code,
                       !is_refusal(response.error.code) || !consistent,
                       w.deadline_ms);
      }

      std::lock_guard<std::mutex> lock(mu);
      if (limits.keep_answers) {
        run.answers[index] = {response.ok ? "" : response.error.code,
                              response.report};
      }
      ++tally["processes=" + std::to_string(spec.processes)];
      ++tally["memory_modules=" + std::to_string(spec.memory_modules)];
      ++tally[std::string("protocol=") + protocol_wire_name(spec.protocol)];
      ++tally[spec.largest_array > 0 ? "with_arrays" : "scalars_only"];
      const std::string masters =
          spec.concurrent_masters ? "concurrent_masters" : "serial_masters";
      ++tally[masters];
      ++tally[masters + (op.ok ? ".ok" : "." + op.code)];
      run.ops.push_back(std::move(op));
    }
  };
  // The run is a series of segments, each against a freshly set-up
  // Service, like a series of one-shot CLI runs. Every segment adds one
  // set-up sample, so setup_s's median spans the whole run instead of a
  // burst of set-ups a few milliseconds long. Set-up CPU time is left out
  // of cpu_ms_per_op.
  do {
    cpu.exclude(set_up);
    const auto segment_end =
        std::min(stop_at, deadline_after(Clock::now(), kSynthSegmentS));
    std::thread second(client, segment_end);
    client(segment_end);
    second.join();
  } while (Clock::now() < stop_at && next < limits.max_ops);
  run.wall_s = ms_between(start, Clock::now()) / 1000.0;
  run.cpu_ms_per_op = cpu.median_ms();
  run.service_metrics = service->metrics_snapshot();

  // Draw shares, so failed_ratio can be read against its base.
  std::ostringstream os;
  os << "draws over " << run.ops.size() << " specs:";
  for (const auto& [key, count] : tally) {
    os << " " << key << "=" << count;
  }
  run.notes.push_back(os.str());
  run.notes.push_back(probe_defects(*service, w.deadline_ms));
  return run;
}

// ---- serve_open -------------------------------------------------------------

WorkloadRun run_serve_open(std::uint64_t seed, const RunLimits& limits) {
  const WorkloadSpec& w = *find_workload("serve_open");
  const std::vector<Request> manifest = load_manifest();
  WorkloadRun run;

  // Set-up: start the Service and warm its caches with one pass over the
  // mix. The warm pass's reports are the reference every later response
  // must equal byte for byte (the serve determinism contract).
  std::unique_ptr<Service> service;
  std::vector<std::string> reference(manifest.size());
  std::string setup_error;  // the first set-up that went wrong, if any
  const auto set_up = [&] {
    service.reset();
    const auto t0 = Clock::now();
    service = start_service();
    // One request at a time, so the set-up time does not depend on how
    // the two workers happen to share the mix.
    std::vector<Response> warm;
    for (const Request& request : manifest) {
      warm.push_back(service->submit(request).get());
    }
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (std::size_t i = 0; i < manifest.size() && setup_error.empty(); ++i) {
      if (!warm[i].ok) {
        setup_error = "warm-up request " + manifest[i].id + " failed: " +
                      warm[i].error.code + ": " + warm[i].error.message;
      } else if (manifest[i].op != ifsyn::serve::RequestOp::kStats) {
        if (reference[i].empty()) reference[i] = warm[i].report;
        if (warm[i].report != reference[i]) {
          setup_error = "warm-up request " + manifest[i].id +
                        " answered differently in two set-ups";
        }
      }
    }
  };
  const std::vector<Arrival> schedule =
      open_schedule(seed, kServeOpenRate, limits.seconds, manifest.size(),
                    limits.max_ops);
  run.ops.resize(schedule.size());

  struct Pending {
    std::size_t k = 0;
    Clock::time_point due;
    std::future<Response> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> submitted;  // guarded by mu
  bool done = false;              // guarded by mu
  std::size_t completed = 0;      // guarded by mu
  std::condition_variable drained;

  CpuPerOp cpu(kServeCpuChunk);

  // Waiters observe completions. Each takes the oldest unclaimed request
  // and blocks on it. The Service dequeues in FIFO order and runs at most
  // kWorkers requests at once, so kWorkers + 1 waiters always have one
  // blocked on (or free for) any request that completes: every completion
  // is seen when it happens, without polling.
  const auto waiter = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !submitted.empty(); });
        if (submitted.empty()) return;
        p = std::move(submitted.front());
        submitted.pop_front();
      }
      const Response response = p.future.get();
      const auto now = Clock::now();
      const std::size_t entry = schedule[p.k].entry;
      Op& op = run.ops[p.k];  // one writer per slot
      op.input = p.k;
      op.done = now;
      op.latency_ms = ms_between(p.due, now);
      op.queue_us = response.queue_us;
      op.execute_us = response.elapsed_us;
      if (!response.ok) {
        charge_failure(op, response.error.code,
                       !is_refusal(response.error.code), w.deadline_ms);
      } else if (manifest[entry].op == ifsyn::serve::RequestOp::kStats) {
        // A live snapshot: it must be valid JSON, nothing more.
        op.ok = ifsyn::serve::parse_json(response.report).is_ok();
        if (!op.ok) charge_failure(op, "wrong_output", true, w.deadline_ms);
      } else {
        op.ok = response.report == reference[entry];
        if (!op.ok) charge_failure(op, "wrong_output", true, w.deadline_ms);
      }
      if (op.ok) cpu.done();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++completed;
      }
      drained.notify_all();
    }
  };
  std::vector<std::thread> waiters;
  for (int i = 0; i <= kWorkers; ++i) waiters.emplace_back(waiter);

  // The schedule runs in segments of kServeSegmentS schedule seconds, each
  // against a freshly set-up Service, so setup_s's median spans the whole
  // run instead of a burst of set-ups taken before it. A segment drains
  // before the next set-up replaces its Service; the set-up pauses the
  // schedule, and its CPU time is left out of cpu_ms_per_op.
  double measured_s = 0;
  std::size_t k = 0;
  for (int segment = 0; segment == 0 || k < schedule.size(); ++segment) {
    cpu.exclude(set_up);
    if (!setup_error.empty()) break;
    const double segment_at_s = segment * kServeSegmentS;
    const auto segment_start = Clock::now();
    for (; k < schedule.size() &&
           schedule[k].at_s < segment_at_s + kServeSegmentS;
         ++k) {
      const auto due =
          deadline_after(segment_start, schedule[k].at_s - segment_at_s);
      std::this_thread::sleep_until(due);
      Request request = manifest[schedule[k].entry];
      request.id += "#" + std::to_string(k);
      request.deadline_ms = static_cast<std::uint64_t>(w.deadline_ms);
      const auto sent = Clock::now();
      std::future<Response> future = service->submit(std::move(request));
      run.ops[k].late_ms = ms_between(due, sent);
      run.ops[k].sent = sent;
      {
        std::lock_guard<std::mutex> lock(mu);
        submitted.push_back({k, due, std::move(future)});
      }
      cv.notify_one();
    }
    std::unique_lock<std::mutex> lock(mu);
    drained.wait(lock, [&] { return completed == k; });
    measured_s += ms_between(segment_start, Clock::now()) / 1000.0;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  if (!setup_error.empty()) throw std::runtime_error(setup_error);
  run.wall_s = measured_s;
  run.cpu_ms_per_op = cpu.median_ms();
  run.service_metrics = service->metrics_snapshot();

  for (const Op& op : run.ops) {
    const std::size_t entry = schedule[op.input].entry;
    if (limits.keep_answers &&
        manifest[entry].op != ifsyn::serve::RequestOp::kStats) {
      run.answers[op.input] = {"", reference[entry]};
    }
  }
  std::map<std::string, int> per_entry;
  for (const Arrival& a : schedule) ++per_entry[manifest[a.entry].id];
  std::vector<double> late;
  for (const Op& op : run.ops) late.push_back(op.late_ms);
  std::ostringstream os;
  os << "open loop at " << kServeOpenRate << " req/s, " << schedule.size()
     << " requests:";
  for (const auto& [id, count] : per_entry) os << " " << id << "=" << count;
  os << "; generator late p99 " << percentile(late, 0.99) << " ms";
  run.notes.push_back(os.str());
  return run;
}

// ---- explore_flc ------------------------------------------------------------

WorkloadRun run_explore_flc(const RunLimits& limits) {
  const WorkloadSpec& w = *find_workload("explore_flc");
  WorkloadRun run;
  const auto set_up = [&run] {
    const auto t0 = Clock::now();
    ifsyn::spec::System built = ifsyn::suite::make_flc_full();
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return built;
  };
  const ifsyn::spec::System system = set_up();

  // A sweep succeeds when Explorer::run returns a result whose report
  // equals the first sweep's byte for byte. The validation verdicts are
  // part of that report; how many validated points co-simulate as
  // equivalent is printed with every run (README.md, "Recorded defects").
  run.ops.reserve(1 << 12);
  std::string first_report;
  std::size_t validated = 0, equivalent = 0;
  CpuPerOp cpu(kExploreCpuChunk);
  const auto start = Clock::now();
  const auto stop_at = deadline_after(start, limits.seconds);
  for (std::size_t i = 0; i < limits.max_ops && Clock::now() < stop_at; ++i) {
    ifsyn::obs::MetricsRegistry registry;
    ifsyn::explore::ExploreOptions options = flc_explore_options(kWorkers);
    options.obs.metrics = &registry;
    Op op;
    op.input = i;
    op.sent = Clock::now();
    const ifsyn::explore::Explorer explorer(system, options);
    auto result = explorer.run();
    std::string report;
    if (result.is_ok()) {
      report = ifsyn::explore::render_exploration_markdown(system, options,
                                                           *result);
    }
    op.done = Clock::now();
    op.latency_ms = ms_between(op.sent, op.done);
    if (!result.is_ok()) {
      charge_failure(op, ifsyn::serve::status_error_code(
                             result.status().code()),
                     false, w.deadline_ms);
    } else {
      if (first_report.empty()) {
        first_report = report;
        validated = result->validated.size();
        for (std::size_t index : result->validated) {
          if (result->points[index].equivalent) ++equivalent;
        }
      }
      op.ok = report == first_report;
      if (!op.ok) {
        charge_failure(op, "wrong_output", true, w.deadline_ms);
      } else if (op.latency_ms > w.deadline_ms) {
        charge_failure(op, "deadline_exceeded", false, w.deadline_ms);
      }
    }
    if (op.ok) cpu.done();
    if (op.ok && limits.keep_answers) run.answers[i] = {"", report};
    run.ops.push_back(std::move(op));
    run.explore_metrics = registry.snapshot();
    // One set-up sample between sweeps, outside their timing and CPU, so
    // the median of set-ups spans the whole run instead of a burst of
    // set-ups a few milliseconds long.
    cpu.exclude([&] { set_up(); });
  }
  run.wall_s = ms_between(start, Clock::now()) / 1000.0;
  run.cpu_ms_per_op = cpu.median_ms();
  run.notes.push_back(
      "FLC sweep: full/half/fixed, alternative groupings, top_k=8, "
      "threads=" + std::to_string(kWorkers) + "; validated points "
      "co-simulating as equivalent: " + std::to_string(equivalent) + " of " +
      std::to_string(validated));
  return run;
}

}  // namespace perfbench
