#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/checker.hpp"
#include "core/equivalence.hpp"
#include "core/interface_synthesizer.hpp"
#include "core/report.hpp"
#include "explore/report.hpp"
#include "measure.hpp"
#include "obs/scoped_timer.hpp"
#include "serve/json.hpp"
#include "serve/spec_intern.hpp"
#include "sim/interpreter.hpp"
#include "spec/parser.hpp"
#include "suite/flc.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ifsyn::obs::MetricsRegistry;
using ifsyn::obs::MetricsSnapshot;
using ifsyn::obs::ObsContext;
using ifsyn::obs::Span;
using ifsyn::obs::TraceSink;
using ifsyn::serve::Request;
using ifsyn::serve::RequestOp;

// Fixed input-set sizes. synth_cold's 96 distinct specs overflow the
// Service's 64-entry spec cache, so the A pass shows its evictions.
constexpr std::size_t kSynthInputs = 96;
constexpr std::size_t kServeInputs = 72;
constexpr std::size_t kExploreInputs = 3;

/// One replayable operation: a serve request, or (empty) one FLC sweep.
struct Input {
  std::size_t key = 0;  ///< index into the A pass's answers
  std::optional<Request> request;
};

/// What one replay pass accumulates.
struct Pass {
  std::vector<Answer> answers;
  std::map<std::string, std::uint64_t> counters;  ///< registry, summed
  std::map<std::string, std::uint64_t> exact;     ///< must repeat exactly
  std::uint64_t parse_bytes = 0;
  std::uint64_t report_bytes = 0;
  double wall_s = 0;
};

/// Counts the allocation calls the replay thread makes inside one layer's
/// spans into pass.exact["<layer>.alloc_calls"].
class AllocScope {
 public:
  AllocScope(Pass& pass, const char* layer)
      : pass_(pass), layer_(layer), start_(thread_alloc_calls()) {}
  ~AllocScope() {
    pass_.exact[std::string(layer_) + ".alloc_calls"] +=
        thread_alloc_calls() - start_;
  }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  Pass& pass_;
  const char* layer_;
  std::uint64_t start_;
};

void add_counters(Pass& pass, const MetricsSnapshot& snapshot) {
  for (const auto& entry : snapshot.entries) {
    if (entry.kind != ifsyn::obs::MetricKind::kCounter) continue;
    pass.counters[entry.name] += entry.counter;
    if (entry.determinism == ifsyn::obs::Determinism::kDeterministic) {
      pass.exact[entry.name] += entry.counter;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Resolved {
  std::shared_ptr<const ifsyn::spec::System> system;
  ifsyn::serve::SpecDefaults defaults;
};

/// The interner's resolution, split so parsing gets its own span: inline
/// text and files go through spec::parse_system, builtins (C++ builders)
/// through a private SpecInterner.
Resolved resolve(const Request& request, TraceSink* sink, Pass& pass) {
  Resolved out;
  if (request.target.rfind("builtin:", 0) == 0) {
    Span span(sink, "spec.builtin", "spec");
    AllocScope allocs(pass, "spec");
    ifsyn::serve::SpecInterner interner;
    auto interned = interner.intern_target(request.target);
    if (!interned.is_ok()) {
      throw std::runtime_error(interned.status().message());
    }
    out.system = interned->system;
    out.defaults = interned->defaults;
    return out;
  }
  const std::string text =
      request.target.empty() ? request.spec_text : read_file(request.target);
  pass.parse_bytes += text.size();
  Span span(sink, "spec.parse", "spec");
  AllocScope allocs(pass, "spec");
  auto parsed = ifsyn::spec::parse_system(text);
  if (!parsed.is_ok()) throw std::runtime_error(parsed.status().message());
  out.system =
      std::make_shared<const ifsyn::spec::System>(std::move(parsed).value());
  return out;
}

Answer refused(const ifsyn::Status& status) {
  return {ifsyn::serve::status_error_code(status.code()), ""};
}

ifsyn::core::SynthesisOptions synthesis_options(const Request& request,
                                                const Resolved& spec,
                                                const ObsContext& obs) {
  const auto& ro = request.options;
  ifsyn::core::SynthesisOptions options;
  if (ro.protocol) options.protocol = *ro.protocol;
  if (ro.fixed_delay_cycles) options.fixed_delay_cycles = *ro.fixed_delay_cycles;
  options.arbitrate = ro.arbitrate.value_or(spec.defaults.arbitrate);
  options.compute_cycles_override = spec.defaults.compute_cycles_override;
  options.obs = obs;
  return options;
}

// Mirrors Service::execute_synth.
Answer replay_synth(const Request& request, const Resolved& spec,
                    MetricsRegistry& registry, TraceSink* sink, Pass& pass) {
  const ObsContext obs{&registry, sink, nullptr, nullptr};
  const ifsyn::core::SynthesisOptions options =
      synthesis_options(request, spec, obs);
  const ifsyn::spec::System& original = *spec.system;
  ifsyn::spec::System refined = original.clone(original.name() + "_refined");
  std::optional<ifsyn::Result<ifsyn::core::SynthesisReport>> synthesized;
  {
    Span span(sink, "core.synthesize", "core");
    AllocScope allocs(pass, "core");
    synthesized.emplace(ifsyn::core::InterfaceSynthesizer(options).run(refined));
  }
  if (!synthesized->is_ok()) return refused(synthesized->status());

  std::optional<ifsyn::core::EquivalenceReport> equivalence;
  if (request.options.cosim.value_or(true)) {
    const std::uint64_t max_time =
        request.options.max_time.value_or(10'000'000);
    std::optional<ifsyn::sim::SimulationRun> original_run;
    {
      // Uninstrumented, as in core::check_equivalence: only the refined
      // run feeds the "sim." metrics.
      Span span(sink, "sim.original", "sim");
      AllocScope allocs(pass, "sim");
      original_run.emplace(ifsyn::sim::simulate(original, max_time));
    }
    std::optional<ifsyn::Result<ifsyn::core::EquivalenceReport>> eq;
    {
      // The refined simulation runs inside; its own span comes from
      // sim::simulate. Its allocations are charged to sim.
      Span span(sink, "core.equivalence", "core");
      AllocScope allocs(pass, "sim");
      eq.emplace(ifsyn::core::check_equivalence_with(
          original, *original_run, refined, max_time, {}, obs));
    }
    if (!eq->is_ok()) return refused(eq->status());
    equivalence = std::move(*eq).value();
  }

  Answer out;
  Span span(sink, "core.render", "core");
  AllocScope allocs(pass, "core");
  const MetricsSnapshot snapshot = registry.snapshot();
  ifsyn::core::ReportInputs inputs;
  inputs.refined = &refined;
  inputs.synthesis = &synthesized->value();
  inputs.equivalence = equivalence ? &*equivalence : nullptr;
  inputs.metrics = &snapshot;
  out.report = ifsyn::core::render_markdown_report(inputs);
  if (equivalence && !equivalence->equivalent) out.code = "not_equivalent";
  return out;
}

/// One sweep; its answer is the rendered report. Validation verdicts are
/// part of the report; `validated_ok` says whether every one passed.
Answer run_explorer(const ifsyn::spec::System& system,
                      ifsyn::explore::ExploreOptions options, bool json,
                      MetricsRegistry& registry, TraceSink* sink, Pass& pass,
                      bool* validated_ok = nullptr) {
  options.obs = ObsContext{&registry, sink, nullptr, nullptr};
  std::optional<ifsyn::Result<ifsyn::explore::ExplorationResult>> result;
  {
    Span span(sink, "explore.run", "explore");
    AllocScope allocs(pass, "explore");
    result.emplace(ifsyn::explore::Explorer(system, options).run());
  }
  if (!result->is_ok()) return refused(result->status());
  Answer out;
  Span span(sink, "explore.render", "explore");
  out.report =
      json ? ifsyn::explore::render_exploration_json(system, options,
                                                     result->value())
           : ifsyn::explore::render_exploration_markdown(system, options,
                                                         result->value());
  if (validated_ok) {
    *validated_ok = true;
    for (std::size_t index : result->value().validated) {
      const auto& point = result->value().points[index];
      *validated_ok = *validated_ok && point.sim_ok && point.equivalent;
    }
  }
  return out;
}

// Mirrors Service::execute_explore, minus the shared estimation store
// (which never changes a report).
Answer replay_explore(const Request& request, const Resolved& spec,
                        MetricsRegistry& registry, TraceSink* sink,
                        Pass& pass) {
  const auto& ro = request.options;
  ifsyn::explore::ExploreOptions options;
  options.threads = std::clamp(ro.threads.value_or(1), 1,
                               ifsyn::serve::ServiceOptions{}.max_request_threads);
  options.top_k = ro.top_k.value_or(0);
  if (ro.sim_max_time) options.sim_max_time = *ro.sim_max_time;
  if (ro.arbitrate) options.arbitrate = *ro.arbitrate;
  if (ro.protocols) options.space.protocols = *ro.protocols;
  if (ro.fixed_delay_cycles) {
    options.space.fixed_delay_cycles = *ro.fixed_delay_cycles;
  }
  if (ro.min_width) options.space.min_width = *ro.min_width;
  if (ro.max_width) options.space.max_width = *ro.max_width;
  if (ro.alt_groupings) options.space.alternative_groupings = *ro.alt_groupings;
  options.max_execution_clocks = ro.max_clocks;
  options.compute_cycles_override = spec.defaults.compute_cycles_override;
  bool validated_ok = true;
  Answer out = run_explorer(*spec.system, options, ro.exploration_json,
                            registry, sink, pass, &validated_ok);
  if (out.code.empty() && !validated_ok) out.code = "check_failed";
  return out;
}

// Mirrors Service::execute_check (without the opt-in conform step, which
// the manifest does not use).
Answer replay_check(const Request& request, const Resolved& spec,
                    MetricsRegistry& registry, TraceSink* sink, Pass& pass) {
  const ObsContext obs{&registry, sink, nullptr, nullptr};
  ifsyn::core::SynthesisOptions options = synthesis_options(request, spec, obs);
  options.run_checker = false;
  ifsyn::spec::System system = spec.system->clone(spec.system->name());
  const std::map<std::string, long long> compute_snapshot =
      ifsyn::check::snapshot_compute_cycles(system,
                                            options.compute_cycles_override);
  {
    Span span(sink, "core.synthesize", "core");
    AllocScope allocs(pass, "core");
    const auto synthesized =
        ifsyn::core::InterfaceSynthesizer(options).run(system);
    if (!synthesized.is_ok()) return refused(synthesized.status());
  }
  Span span(sink, "check.run", "check");
  ifsyn::check::CheckOptions check_options;
  check_options.compute_cycles_override = compute_snapshot;
  const ifsyn::check::CheckReport report =
      ifsyn::check::run_checks(system, check_options, obs);
  Answer out;
  if (report.clean()) {
    std::size_t refined_buses = 0;
    for (const auto& bus : system.buses()) {
      if (bus->generated()) ++refined_buses;
    }
    std::ostringstream os;
    os << "check clean: " << refined_buses << " bus(es), "
       << system.channels().size() << " channel(s), 0 diagnostics\n";
    out.report = os.str();
  } else {
    out.code = "check_failed";
    out.report = report.to_string();
  }
  return out;
}

Answer replay_one(const Input& input, const ifsyn::spec::System* flc,
                  TraceSink* sink, Pass& pass) {
  MetricsRegistry registry;
  Answer out;
  if (!input.request) {
    out = run_explorer(*flc, flc_explore_options(1), false, registry, sink,
                       pass);
  } else {
    const Request& request = *input.request;
    const Resolved spec = resolve(request, sink, pass);
    switch (request.op) {
      case RequestOp::kSynth:
        out = replay_synth(request, spec, registry, sink, pass);
        break;
      case RequestOp::kExplore:
        out = replay_explore(request, spec, registry, sink, pass);
        break;
      case RequestOp::kCheck:
        out = replay_check(request, spec, registry, sink, pass);
        break;
      default:
        throw std::logic_error("not a replayable request");
    }
  }
  add_counters(pass, registry.snapshot());
  pass.report_bytes += out.report.size();
  return out;
}

Pass run_pass(const std::vector<Input>& inputs,
              const ifsyn::spec::System* flc, TraceSink* sink) {
  Pass pass;
  const auto t0 = Clock::now();
  for (const Input& input : inputs) {
    Span span(sink, "replay " + (input.request ? input.request->id
                                               : std::string("flc sweep")),
              "bench");
    pass.answers.push_back(replay_one(input, flc, sink, pass));
  }
  pass.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  return pass;
}

// ---- the trace: spans, nesting, self time ----------------------------------

struct SpanRecord {
  std::string name;
  std::string layer;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  int tid = 0;
  std::uint64_t covered = 0;  ///< by direct children
};

/// Layer of a span: the benchmark's own spans carry their layer as the
/// category; the program's spans are mapped by category and name.
std::string layer_of(const std::string& name, const std::string& category) {
  if (category == "synth") {
    if (name.rfind("P3 ", 0) == 0) return "bus";
    if (name.rfind("P4 ", 0) == 0) return "protocol";
    if (name.rfind("P6 ", 0) == 0) return "check";
    return "core";
  }
  if (category == "explore" && name == "simulate original") return "sim";
  return category;
}

std::vector<SpanRecord> spans_of(const std::string& trace_json) {
  auto doc = ifsyn::serve::parse_json(trace_json);
  if (!doc.is_ok()) throw std::runtime_error("trace: " + doc.status().message());
  std::vector<SpanRecord> spans;
  const ifsyn::serve::Json* events = doc->find("traceEvents");
  if (!events || !events->is_array()) throw std::runtime_error("trace: no events");
  for (const auto& event : events->as_array()) {
    const auto* ph = event.find("ph");
    if (!ph || !ph->is_string() || ph->as_string() != "X") continue;
    SpanRecord s;
    s.name = event.find("name")->as_string();
    const auto* cat = event.find("cat");
    s.layer = layer_of(s.name, cat && cat->is_string() ? cat->as_string() : "");
    s.ts = static_cast<std::uint64_t>(event.find("ts")->as_number());
    s.dur = static_cast<std::uint64_t>(event.find("dur")->as_number());
    s.tid = static_cast<int>(event.find("tid")->as_number());
    spans.push_back(std::move(s));
  }
  // Per thread track: a span's parent is the innermost earlier span still
  // open at its start. Child coverage is clipped to the parent.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanRecord& s = spans[i];
    while (!open.empty()) {
      const SpanRecord& top = spans[open.back()];
      if (top.tid == s.tid && s.ts < top.ts + top.dur) break;
      open.pop_back();
    }
    if (!open.empty()) {
      SpanRecord& parent = spans[open.back()];
      const std::uint64_t end =
          std::min(s.ts + s.dur, parent.ts + parent.dur);
      parent.covered += end - s.ts;
    }
    open.push_back(i);
  }
  return spans;
}

/// A's service requests as spans on reconstructed tracks: "serve.request"
/// from submit to completion, with the engine's execute time (placed after
/// the queue wait) as an "engine" child, so serve's self time is queueing
/// plus hand-off. Tracks are filled greedily so no two spans on a track
/// overlap; each track is recorded from its own short-lived thread, which
/// gives it its own tid.
void record_service_pass(const WorkloadRun& run, Clock::time_point sink_t0,
                         TraceSink& sink) {
  std::vector<std::vector<const Op*>> tracks;
  std::vector<Clock::time_point> track_end;
  std::vector<const Op*> ops;
  for (const Op& op : run.ops) ops.push_back(&op);
  std::sort(ops.begin(), ops.end(),
            [](const Op* a, const Op* b) { return a->sent < b->sent; });
  for (const Op* op : ops) {
    std::size_t t = 0;
    while (t < tracks.size() && track_end[t] > op->sent) ++t;
    if (t == tracks.size()) {
      tracks.emplace_back();
      track_end.emplace_back();
    }
    tracks[t].push_back(op);
    track_end[t] = op->done;
  }
  const auto at = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(std::max(0.0, us_between(sink_t0, t)));
  };
  std::vector<std::thread> threads;
  std::atomic<std::size_t> ready{0};
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    threads.emplace_back([&, t] {
      // Stay alive until every track thread has its tid.
      sink.set_thread_name("service pass (reconstructed) " + std::to_string(t));
      ready.fetch_add(1);
      while (ready.load() < tracks.size()) std::this_thread::yield();
      for (const Op* op : tracks[t]) {
        const std::uint64_t ts = at(op->sent);
        const std::uint64_t dur = std::max<std::uint64_t>(at(op->done) - ts, 1);
        sink.duration_event("serve.request", "serve", ts, dur);
        const std::uint64_t exec_ts = std::min(ts + op->queue_us, ts + dur);
        const std::uint64_t exec_dur =
            std::min<std::uint64_t>(op->execute_us, ts + dur - exec_ts);
        sink.duration_event("execute", "engine", exec_ts, exec_dur);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---- metrics ----------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double counter(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto* entry = snapshot.find(name);
  return entry ? static_cast<double>(entry->counter) : 0;
}

}  // namespace

TracedRun run_traced(const std::string& workload, std::uint64_t seed,
                     const std::string& trace_path) {
  TracedRun out;
  const double parallelism_before = effective_parallelism();
  TraceSink sink;
  const auto sink_t0 = Clock::now();

  // ---- A: the workload itself ----------------------------------------------
  WorkloadRun a;
  std::vector<Input> inputs;
  std::optional<ifsyn::spec::System> flc;
  const double unbounded = 1e9;
  RunLimits limits{unbounded, 0, /*keep_answers=*/true};
  if (workload == "synth_cold") {
    limits.max_ops = kSynthInputs;
    a = run_synth_cold(seed, limits);
    const double deadline = find_workload(workload)->deadline_ms;
    for (std::size_t i = 0; i < kSynthInputs; ++i) {
      inputs.push_back({i, synth_request(generate_spec(seed, i), i, deadline)});
    }
  } else if (workload == "serve_open") {
    limits.max_ops = kServeInputs;
    a = run_serve_open(seed, limits);
    const std::vector<Request> manifest = load_manifest();
    const std::vector<Arrival> schedule = open_schedule(
        seed, kServeOpenRate, unbounded, manifest.size(), kServeInputs);
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      const Request& request = manifest[schedule[k].entry];
      if (request.op == RequestOp::kStats) continue;  // a live snapshot
      inputs.push_back({k, request});
    }
  } else {
    limits.max_ops = kExploreInputs;
    a = run_explore_flc(limits);
    flc.emplace(ifsyn::suite::make_flc_full());
    for (std::size_t i = 0; i < kExploreInputs; ++i) inputs.push_back({i, {}});
  }
  const ifsyn::spec::System* flc_system = flc ? &*flc : nullptr;

  // ---- B, C1, C2, B2 ---------------------------------------------------------
  // Untraced and traced passes in B C C B order, so a drift in machine
  // speed over the run weighs on both sides of the overhead alike. Both
  // traced passes start from an equal sink, so their allocation counts can
  // match exactly.
  const Pass b = run_pass(inputs, flc_system, nullptr);
  sink.set_thread_name("replay");
  const Pass c1 = run_pass(inputs, flc_system, &sink);
  TraceSink second_sink;
  second_sink.set_thread_name("replay");
  const Pass c2 = run_pass(inputs, flc_system, &second_sink);
  const Pass b2 = run_pass(inputs, flc_system, nullptr);
  const bool served = workload != "explore_flc";
  if (served) record_service_pass(a, sink_t0, sink);

  // ---- faithfulness -----------------------------------------------------------
  std::size_t mismatches = 0;
  for (const Op& op : a.ops) {
    ++out.attempted;
    if (!op.ok) ++out.failed;
    if (op.incorrect) out.correct = false;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto ref = a.answers.find(inputs[i].key);
    bool same = ref != a.answers.end();
    for (const Pass* pass : {&b, &c1, &c2, &b2}) {
      same = same && pass->answers[i] == ref->second;
    }
    if (!same) {
      ++mismatches;
      out.lines.push_back("replay mismatch on input " +
                          std::to_string(inputs[i].key));
    }
  }
  // Deterministic counts repeat exactly between the two traced passes and
  // between the two untraced ones (tracing itself allocates, so the alloc
  // counts of a traced and an untraced pass differ).
  std::size_t count_drift = 0;
  for (const auto& [first, second] : {std::pair{&c1, &c2}, std::pair{&b, &b2}}) {
    if (first->exact == second->exact) continue;
    for (const auto& [name, value] : first->exact) {
      const auto it = second->exact.find(name);
      const std::uint64_t other = it == second->exact.end() ? 0 : it->second;
      if (other != value) {
        ++count_drift;
        out.lines.push_back("deterministic count " + name + " differs: " +
                            std::to_string(value) + " vs " +
                            std::to_string(other));
      }
    }
    if (first->exact.size() != second->exact.size()) ++count_drift;
  }
  if (mismatches > 0 || count_drift > 0) out.correct = false;

  // ---- the trace file ----------------------------------------------------------
  const std::string full_trace = sink.to_json();
  std::string error;
  if (!ifsyn::obs::validate_trace_json(full_trace, &error)) {
    out.correct = false;
    out.lines.push_back("trace fails schema validation: " + error);
  }
  {
    std::ofstream file(trace_path);
    file << full_trace;
    if (!file) throw std::runtime_error("cannot write " + trace_path);
  }

  // ---- per-layer numbers ---------------------------------------------------------
  const std::vector<SpanRecord> spans = spans_of(full_trace);
  std::map<std::string, double> self_us;   // by layer
  std::map<std::string, double> span_us;   // by span name
  double sim_refined_us = 0;
  for (const SpanRecord& s : spans) {
    self_us[s.layer] += static_cast<double>(s.dur - std::min(s.covered, s.dur));
    span_us[s.name] += static_cast<double>(s.dur);
    if (s.layer == "sim" && s.name.rfind("simulate ", 0) == 0 &&
        s.name != "simulate original") {
      sim_refined_us += static_cast<double>(s.dur);
    }
  }
  const double ops = static_cast<double>(inputs.size());
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto total = [&](const std::string& name) {
    const auto it = c1.counters.find(name);
    return it == c1.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto allocs = [&](const std::string& layer) {
    const auto it = b.exact.find(layer + ".alloc_calls");
    return it == b.exact.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::vector<Metric>& metrics = out.metrics;
  const auto add = [&](const std::string& name, double value,
                       const char* unit) {
    metrics.push_back({name, value, unit});
  };
  // serve: from A's responses and the Service's own counters.
  std::vector<double> queue, execute, handoff;
  for (const Op& op : a.ops) {
    if (!served) break;
    queue.push_back(static_cast<double>(op.queue_us));
    execute.push_back(static_cast<double>(op.execute_us));
    handoff.push_back(std::max(0.0, us_between(op.sent, op.done) -
                                        static_cast<double>(op.queue_us) -
                                        static_cast<double>(op.execute_us)));
  }
  add("serve.queue_wait_us.p50", median(queue), "us");
  add("serve.queue_wait_us.tail", tail_of(queue).value, "us");
  add("serve.execute_us.p50", median(execute), "us");
  add("serve.execute_us.tail", tail_of(execute).value, "us");
  add("serve.handoff_us.p50", median(handoff), "us");
  for (const char* cache : {"spec_cache", "program_cache", "estimation_cache"}) {
    const std::string base = std::string("serve.") + cache;
    const double hits = counter(a.service_metrics, base + ".hits");
    const double misses = counter(a.service_metrics, base + ".misses");
    add(base + ".hit_ratio", ratio(hits, hits + misses), "ratio");
    add(base + ".evictions", counter(a.service_metrics, base + ".evictions"),
          "count");
  }
  add("serve.self_us", ratio(self_us["serve"], static_cast<double>(a.ops.size())),
        "us");
  // spec
  add("spec.parse_us", per_op(span_us["spec.parse"] + span_us["spec.builtin"]),
        "us");
  add("spec.parse_bytes", static_cast<double>(c1.parse_bytes), "B");
  add("spec.alloc_calls", allocs("spec"), "count");
  add("spec.self_us", per_op(self_us["spec"]), "us");
  // bus
  add("bus.generate_us", per_op(total("synth.phase.p3_bus_generation_us")),
        "us");
  add("bus.width_evaluations", total("synth.width_evaluations"), "count");
  add("bus.self_us", per_op(self_us["bus"]), "us");
  // protocol
  add("protocol.generate_us",
        per_op(total("synth.phase.p4_protocol_generation_us")), "us");
  add("protocol.procedures_generated", total("protocol.procedures_generated"),
        "count");
  add("protocol.transfer_words_generated",
        total("protocol.transfer_words_generated"), "count");
  add("protocol.self_us", per_op(self_us["protocol"]), "us");
  // check
  add("check.run_us",
        per_op(total("synth.phase.p6_check_us") + span_us["check.run"]), "us");
  add("check.fsm_states_explored", total("check.fsm_states_explored"),
        "count");
  add("check.self_us", per_op(self_us["check"]), "us");
  // sim
  const double executed = total("sim.vm.executed_ops");
  add("sim.original_us",
        per_op(span_us["sim.original"] + span_us["simulate original"]), "us");
  add("sim.refined_us", per_op(sim_refined_us), "us");
  add("sim.vm.compile_us", per_op(total("sim.vm.compile_us")), "us");
  add("sim.vm.compiled_instructions", total("sim.vm.compiled_instructions"),
        "count");
  add("sim.vm.executed_ops", executed, "count");
  add("sim.delta_cycles", total("sim.delta_cycles"), "count");
  add("sim.wakeups",
        total("sim.wakeups.time") + total("sim.wakeups.event") +
            total("sim.wakeups.condition") + total("sim.wakeups.bus_grant"),
        "count");
  add("sim.ops_per_us", ratio(executed, sim_refined_us), "ops/us");
  add("sim.alloc_calls", allocs("sim"), "count");
  add("sim.self_us", per_op(self_us["sim"]), "us");
  // core
  add("core.synthesize_us", per_op(span_us["core.synthesize"]), "us");
  add("core.equivalence_us", per_op(span_us["core.equivalence"]), "us");
  add("core.render_us", per_op(span_us["core.render"]), "us");
  add("core.report_bytes", static_cast<double>(c1.report_bytes), "B");
  add("core.alloc_calls", allocs("core"), "count");
  add("core.self_us", per_op(self_us["core"]), "us");
  // explore
  const double estimate_us = total("explore.phase.estimate_us");
  const double validate_us = total("explore.phase.validate_us");
  add("explore.run_us", per_op(span_us["explore.run"]), "us");
  add("explore.phase.estimate_us", per_op(estimate_us), "us");
  add("explore.phase.validate_us", per_op(validate_us), "us");
  for (const char* key : {"total", "pruned", "evaluated", "validated"}) {
    add(std::string("explore.points.") + key,
          total(std::string("explore.points.") + key), "count");
  }
  add("explore.cache.hits", total("explore.cache.hits"), "count");
  add("explore.cache.misses", total("explore.cache.misses"), "count");
  {
    // From A, where the sweep runs on its workload's thread count. The
    // worker-busy counter covers the estimate and validate phases.
    const MetricsSnapshot& e = a.explore_metrics;
    const double phases = counter(e, "explore.phase.estimate_us") +
                          counter(e, "explore.phase.validate_us");
    add("explore.parallel_efficiency",
          ratio(counter(e, "explore.worker_busy_us"), kWorkers * phases),
          "ratio");
  }
  add("explore.alloc_calls", allocs("explore"), "count");
  add("explore.self_us", per_op(self_us["explore"]), "us");
  // bench health
  std::vector<double> late;
  for (const Op& op : a.ops) late.push_back(op.late_ms);
  add("bench.generator_late_ms.p99", percentile(late, 0.99), "ms");
  const double parallelism_after = effective_parallelism();
  add("bench.effective_parallelism",
        std::min(parallelism_before, parallelism_after), "ratio");
  const double untraced_s = b.wall_s + b2.wall_s;
  add("bench.trace_overhead_pct",
        100.0 * ratio(c1.wall_s + c2.wall_s - untraced_s, untraced_s), "%");

  // ---- summary ---------------------------------------------------------------------
  std::ostringstream os;
  os << "traced replay: " << inputs.size() << " inputs, "
     << (inputs.size() - mismatches) << " answers byte-identical to the "
     << (served ? "Service's" : "first sweep's") << ", " << c1.exact.size()
     << " deterministic counts, " << count_drift << " differing between the "
     << "two traced runs";
  out.lines.push_back(os.str());
  os.str("");
  os << "replay wall: untraced " << b.wall_s * 1e3 << " + " << b2.wall_s * 1e3
     << " ms, traced " << c1.wall_s * 1e3 << " + " << c2.wall_s * 1e3
     << " ms; trace " << spans.size() << " spans -> "
     << trace_path;
  out.lines.push_back(os.str());
  os.str("");
  os << "self time per layer (us per input):";
  for (const char* layer : {"serve", "spec", "bus", "protocol", "check", "sim",
                            "core", "explore"}) {
    os << " " << layer << "=" << per_op(self_us[layer]);
  }
  out.lines.push_back(os.str());
  for (const std::string& note : a.notes) out.lines.push_back(note);
  return out;
}

}  // namespace perfbench
