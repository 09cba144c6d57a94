#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "check/checker.hpp"
#include "check/trace_miner.hpp"
#include "core/equivalence.hpp"
#include "core/interface_synthesizer.hpp"
#include "core/report.hpp"
#include "explore/explorer.hpp"
#include "explore/report.hpp"
#include "obs/trace_sink.hpp"
#include "sim/bytecode/optimizer.hpp"
#include "sim/interpreter.hpp"
#include "util/assert.hpp"

namespace ifsyn::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Shared-store bounds (entries); each store evicts its least recently
/// used entry beyond its bound.
constexpr std::size_t kSpecCacheCapacity = 64;
constexpr std::size_t kEstimationCacheCapacity = 4096;
constexpr std::size_t kProgramCacheCapacity = 128;

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

Response error_response(const Request& request, std::string code,
                        std::string message) {
  Response response;
  response.id = request.id;
  response.op = request_op_name(request.op);
  response.ok = false;
  response.error = {std::move(code), std::move(message)};
  return response;
}

Response status_response(const Request& request, const Status& status) {
  return error_response(request, status_error_code(status.code()),
                        status.message());
}

/// The estimation store's scope: anything beyond the group-signature key
/// that changes what an estimate *means* — the spec identity and the
/// calibration it was computed under.
std::string estimation_scope(const InternedSpec& spec,
                             const std::map<std::string, long long>& cycles) {
  std::string scope = spec.hash;
  for (const auto& [process, value] : cycles) {
    scope += "|" + process + "=" + std::to_string(value);
  }
  return scope;
}

/// The synthesis flow's options for a synth or check request: the
/// request's explicit choices over the spec's own defaults.
core::SynthesisOptions synthesis_options(const RequestOptions& ro,
                                         const InternedSpec& spec,
                                         const obs::ObsContext& obs) {
  core::SynthesisOptions options;
  if (ro.protocol) options.protocol = *ro.protocol;
  if (ro.fixed_delay_cycles) options.fixed_delay_cycles = *ro.fixed_delay_cycles;
  options.arbitrate = ro.arbitrate.value_or(spec.defaults.arbitrate);
  options.compute_cycles_override = spec.defaults.compute_cycles_override;
  options.obs = obs;
  return options;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      interner_(kSpecCacheCapacity,
                &registry_.counter("serve.spec_cache.hits",
                                   obs::Determinism::kWallClock),
                &registry_.counter("serve.spec_cache.misses",
                                   obs::Determinism::kWallClock),
                &registry_.counter("serve.spec_cache.evictions",
                                   obs::Determinism::kWallClock)),
      estimation_cache_(kEstimationCacheCapacity,
                        &registry_.counter("serve.estimation_cache.hits",
                                           obs::Determinism::kWallClock),
                        &registry_.counter("serve.estimation_cache.misses",
                                           obs::Determinism::kWallClock),
                        &registry_.counter("serve.estimation_cache.evictions",
                                           obs::Determinism::kWallClock)),
      program_cache_(kProgramCacheCapacity,
                     &registry_.counter("serve.program_cache.hits",
                                        obs::Determinism::kWallClock),
                     &registry_.counter("serve.program_cache.misses",
                                        obs::Determinism::kWallClock),
                     &registry_.counter("serve.program_cache.evictions",
                                        obs::Determinism::kWallClock)),
      c_submitted_(registry_.counter("serve.requests.submitted",
                                     obs::Determinism::kWallClock)),
      c_ok_(registry_.counter("serve.responses.ok",
                              obs::Determinism::kWallClock)),
      c_error_(registry_.counter("serve.responses.error",
                                 obs::Determinism::kWallClock)),
      c_rejected_(registry_.counter("serve.requests.admission_rejected",
                                    obs::Determinism::kWallClock)),
      c_deadline_(registry_.counter("serve.requests.deadline_exceeded",
                                    obs::Determinism::kWallClock)),
      c_conform_requests_(registry_.counter("check.conform.requests",
                                            obs::Determinism::kWallClock)),
      c_conform_clean_(registry_.counter("check.conform.clean",
                                         obs::Determinism::kWallClock)),
      c_conform_disagreements_(registry_.counter(
          "check.conform.disagreements", obs::Determinism::kWallClock)),
      g_queue_depth_(registry_.gauge("serve.queue.depth",
                                     obs::Determinism::kWallClock)),
      h_latency_us_(registry_.histogram("serve.request_latency_us",
                                        obs::exponential_bounds(100'000'000),
                                        obs::Determinism::kWallClock)),
      h_queue_wait_us_(registry_.histogram("serve.queue_wait_us",
                                           obs::exponential_bounds(100'000'000),
                                           obs::Determinism::kWallClock)),
      h_execute_us_(registry_.histogram("serve.execute_us",
                                        obs::exponential_bounds(100'000'000),
                                        obs::Determinism::kWallClock)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_request_threads < 1) options_.max_request_threads = 1;
  // Every simulation this process runs from now on — cosim legs,
  // validation runs, across all workers — shares compiled bytecode.
  sim::bytecode::install_process_cache(&program_cache_);
  // The engine for this process's simulations, alongside the opt level
  // /stats already reports: 0=vm, 1=ast.
  registry_.gauge("serve.sim_engine", obs::Determinism::kWallClock)
      .set(static_cast<std::int64_t>(sim::engine_from_env()));
}

Service::~Service() {
  stop();
  if (sim::bytecode::process_cache() == &program_cache_) {
    sim::bytecode::install_process_cache(nullptr);
  }
}

void Service::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!workers_.empty()) return;
  stopping_ = false;
  {
    std::lock_guard<std::mutex> slots_lock(slots_mu_);
    slots_.assign(static_cast<std::size_t>(options_.workers), WorkerSlot{});
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
  if (options_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  if (options_.event_log) {
    options_.event_log->log(
        obs::Severity::kInfo, "serve.service", "service started",
        {{"workers", std::to_string(options_.workers)},
         {"queue_capacity", std::to_string(options_.queue_capacity)}});
  }
}

void Service::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();
  if (options_.event_log) {
    options_.event_log->log(obs::Severity::kInfo, "serve.service",
                            "service stopped");
  }
}

std::future<Response> Service::submit(Request request) {
  c_submitted_.add(1);
  Pending pending;
  pending.enqueued = Clock::now();
  const std::uint64_t deadline_ms =
      request.deadline_ms ? request.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    pending.deadline =
        pending.enqueued + std::chrono::milliseconds(deadline_ms);
  }
  // Trace identity, stamped at admission: the id every span of this
  // request carries, and the numeric id binding its flow/async events.
  const std::uint64_t seq = ++trace_seq_;
  if (request.trace_id.empty()) request.trace_id = "t" + std::to_string(seq);
  pending.ctx.trace_id = request.trace_id;
  pending.ctx.flow_id = seq;
  const obs::RequestContext ctx = pending.ctx;
  const std::string request_id = request.id;
  pending.request = std::move(request);
  std::future<Response> future = pending.promise.get_future();

  obs::TraceSink* trace = options_.trace;
  std::uint64_t submit_ts = 0;
  if (trace) {
    // The lifecycle events must be recorded *before* the queue push:
    // once the request is visible a worker may dequeue it and record
    // the flow end, and the sink's pairing validator requires the start
    // to precede it.
    submit_ts = trace->now_us();
    trace->async_begin("request", "serve", ctx.flow_id, &ctx);
    trace->flow_begin("request", "serve", ctx.flow_id);
  }
  const auto reject = [&](Response response) {
    c_rejected_.add(1);
    response.trace_id = ctx.trace_id;
    if (trace) {
      // Close the just-opened flow/async pair so the trace stays valid.
      trace->flow_end("request", "serve", ctx.flow_id);
      trace->instant_event("admission_rejected", "serve", &ctx);
      trace->async_end("request", "serve", ctx.flow_id, &ctx);
    }
    pending.promise.set_value(std::move(response));
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || workers_.empty()) {
      reject(error_response(
          pending.request, "admission_rejected",
          workers_.empty() ? "service not started" : "service stopping"));
      return future;
    }
    if (queue_.size() >= options_.queue_capacity) {
      reject(error_response(
          pending.request, "admission_rejected",
          "queue full (" + std::to_string(options_.queue_capacity) +
              " pending)"));
      return future;
    }
    queue_.push_back(std::move(pending));
    g_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.notify_one();
  if (trace) {
    trace->duration_event("submit " + request_id, "serve", submit_ts,
                          trace->now_us() - submit_ts, &ctx);
  }
  return future;
}

void Service::worker_loop(std::size_t worker_index) {
  if (options_.trace) {
    options_.trace->set_thread_name("serve worker " +
                                    std::to_string(worker_index));
  }
  while (true) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
      g_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }

    const Clock::time_point start = Clock::now();
    obs::TraceSink* trace = options_.trace;
    std::uint64_t execute_ts = 0;
    if (trace) {
      execute_ts = trace->now_us();
      // Lands the submitter's flow arrow on this worker's execute slice.
      trace->flow_end("request", "serve", pending.ctx.flow_id);
    }
    {
      std::lock_guard<std::mutex> slots_lock(slots_mu_);
      WorkerSlot& slot = slots_[worker_index];
      slot.busy = true;
      slot.request_id = pending.request.id;
      slot.trace_id = pending.ctx.trace_id;
      slot.op = request_op_name(pending.request.op);
      slot.start = start;
      slot.deadline = pending.deadline;
    }

    const bool slow_capture =
        options_.slow_trace_ms > 0 && !options_.slow_trace_dir.empty();
    std::string engine_trace_json;
    Response response;
    if (pending.deadline && start > *pending.deadline) {
      // Expired while queued: answer without burning a worker on it.
      c_deadline_.add(1);
      response = error_response(pending.request, "deadline_exceeded",
                                "deadline expired while queued");
    } else {
      response = execute_traced(pending.request,
                                slow_capture ? &engine_trace_json : nullptr);
      if (pending.deadline && Clock::now() > *pending.deadline) {
        c_deadline_.add(1);
        response = error_response(pending.request, "deadline_exceeded",
                                  "deadline expired during execution");
      }
    }
    const Clock::time_point end = Clock::now();
    {
      std::lock_guard<std::mutex> slots_lock(slots_mu_);
      slots_[worker_index] = WorkerSlot{};
    }
    response.queue_us = us_between(pending.enqueued, start);
    response.elapsed_us = us_between(start, end);
    response.trace_id = pending.ctx.trace_id;
    const std::uint64_t total_us = us_between(pending.enqueued, end);
    h_latency_us_.observe(total_us);
    h_queue_wait_us_.observe(response.queue_us);
    h_execute_us_.observe(response.elapsed_us);
    registry_
        .histogram("serve.latency." + response.op + "_us",
                   obs::exponential_bounds(100'000'000),
                   obs::Determinism::kWallClock)
        .observe(total_us);
    (response.ok ? c_ok_ : c_error_).add(1);
    if (trace) {
      trace->duration_event(
          "execute " + response.op + " " + pending.request.id, "serve",
          execute_ts, trace->now_us() - execute_ts, &pending.ctx);
      trace->async_end("request", "serve", pending.ctx.flow_id,
                       &pending.ctx);
    }
    if (slow_capture) maybe_capture_slow(response, total_us, engine_trace_json);
    // The artifacts are a hand-off to direct execute() callers only.
    response.artifacts.reset();
    pending.promise.set_value(std::move(response));
  }
}

void Service::watchdog_loop() {
  const auto interval = std::chrono::milliseconds(options_.watchdog_poll_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    lock.unlock();
    watchdog_poll();
    lock.lock();
  }
  lock.unlock();
  // A service stopped before the first interval elapsed would otherwise
  // never export its liveness gauges; poll once on the way out so they
  // exist whenever a watchdog ran at all.
  watchdog_poll();
}

void Service::watchdog_poll() {
  const Clock::time_point now = Clock::now();
  std::int64_t busy_workers = 0;
  std::uint64_t oldest_age_us = 0;
  std::uint64_t oldest_overdue_us = 0;
  struct Overdue {
    std::size_t worker;
    std::string request_id;
    std::string trace_id;
    std::uint64_t overdue_us;
  };
  std::vector<Overdue> overdue;
  {
    std::lock_guard<std::mutex> slots_lock(slots_mu_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const WorkerSlot& slot = slots_[i];
      const std::uint64_t age_us =
          slot.busy ? us_between(slot.start, now) : 0;
      const std::uint64_t overdue_us =
          slot.busy && slot.deadline && now > *slot.deadline
              ? us_between(*slot.deadline, now)
              : 0;
      const std::string prefix = "serve.worker." + std::to_string(i);
      registry_.gauge(prefix + ".inflight_age_us",
                      obs::Determinism::kWallClock)
          .set(static_cast<std::int64_t>(age_us));
      registry_.gauge(prefix + ".deadline_overdue_us",
                      obs::Determinism::kWallClock)
          .set(static_cast<std::int64_t>(overdue_us));
      if (slot.busy) ++busy_workers;
      oldest_age_us = std::max(oldest_age_us, age_us);
      oldest_overdue_us = std::max(oldest_overdue_us, overdue_us);
      if (overdue_us > 0 && options_.event_log) {
        overdue.push_back({i, slot.request_id, slot.trace_id, overdue_us});
      }
    }
  }
  registry_.gauge("serve.workers.busy", obs::Determinism::kWallClock)
      .set(busy_workers);
  registry_.gauge("serve.inflight.oldest_age_us",
                  obs::Determinism::kWallClock)
      .set(static_cast<std::int64_t>(oldest_age_us));
  registry_.gauge("serve.inflight.oldest_deadline_overdue_us",
                  obs::Determinism::kWallClock)
      .set(static_cast<std::int64_t>(oldest_overdue_us));
  for (const Overdue& o : overdue) {
    // The EventLog's per-(severity, component) rate limit keeps a worker
    // stuck for many polls from flooding the log.
    options_.event_log->log(
        obs::Severity::kWarn, "serve.watchdog",
        "worker past request deadline on uninterruptible engine work",
        {{"worker", std::to_string(o.worker)},
         {"request_id", o.request_id},
         {"trace_id", o.trace_id},
         {"overdue_us", std::to_string(o.overdue_us)}});
  }
}

void Service::maybe_capture_slow(const Response& response,
                                 std::uint64_t total_us,
                                 const std::string& engine_trace_json) {
  if (total_us < options_.slow_trace_ms * 1000) return;
  if (options_.slow_trace_keep == 0) return;
  std::string json = engine_trace_json;
  if (json.empty()) {
    // The engine spans already live in the service-wide trace; this
    // capture records the request's lifecycle shape (see service.hpp).
    obs::TraceSink summary;
    obs::RequestContext ctx{response.trace_id, 0};
    summary.set_thread_name("request " + response.trace_id);
    summary.duration_event("queued", "serve", 0, response.queue_us, &ctx);
    summary.duration_event("execute " + response.op, "serve",
                           response.queue_us, response.elapsed_us, &ctx);
    json = summary.to_json();
  }
  const std::string path =
      options_.slow_trace_dir + "/slow-" + response.trace_id + ".json";
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_captures_.size() >= options_.slow_trace_keep) {
    if (slow_captures_.front().total_us >= total_us) return;
    std::remove(slow_captures_.front().path.c_str());
    slow_captures_.erase(slow_captures_.begin());
  }
  {
    std::ofstream out(path);
    if (!out) {
      if (options_.event_log) {
        options_.event_log->log(obs::Severity::kError, "serve.slow",
                                "cannot write slow-trace capture",
                                {{"path", path}});
      }
      return;
    }
    out << json;
  }
  const auto insert_at = std::upper_bound(
      slow_captures_.begin(), slow_captures_.end(), total_us,
      [](std::uint64_t value, const SlowCapture& capture) {
        return value < capture.total_us;
      });
  slow_captures_.insert(insert_at, SlowCapture{total_us, path});
  if (options_.event_log) {
    options_.event_log->log(obs::Severity::kWarn, "serve.slow",
                            "slow request captured",
                            {{"trace_id", response.trace_id},
                             {"total_us", std::to_string(total_us)},
                             {"path", path}});
  }
}

Response Service::execute(const Request& request) {
  return execute_traced(request, nullptr);
}

Response Service::execute_traced(const Request& request,
                                 std::string* trace_json) {
  // Trace identity: submit() stamps it at admission; a direct execute()
  // call (tests, benches) gets one here so attribution always works.
  obs::RequestContext ctx;
  ctx.trace_id = request.trace_id.empty()
                     ? "t" + std::to_string(++trace_seq_)
                     : request.trace_id;
  const auto with_trace_id = [&](Response response) {
    response.trace_id = ctx.trace_id;
    return response;
  };
  try {
    if (request.op == RequestOp::kMetrics ||
        request.op == RequestOp::kStats) {
      Response response;
      response.id = request.id;
      response.op = request_op_name(request.op);
      response.ok = true;
      response.report =
          request.op == RequestOp::kMetrics ? metrics_text() : stats_json();
      return with_trace_id(std::move(response));
    }

    Result<InternedSpec> interned =
        request.target.empty() ? interner_.intern_source(request.spec_text)
                               : interner_.intern_target(request.target);
    if (!interned.is_ok()) {
      return with_trace_id(status_response(request, interned.status()));
    }

    // Per-request observability: a private registry so the report's
    // deterministic metrics section describes this request alone (the
    // determinism contract), plus a trace destination resolved by the
    // precedence documented on Request::trace_file — per-request file
    // first, then the service-wide sink, then a private sink kept only
    // if the request turns out slow.
    auto artifacts = std::make_shared<RequestArtifacts>();
    artifacts->spec = interned->system;
    obs::TraceSink private_sink;
    // The service event log rides along so engine-level warnings (e.g.
    // the sim's unknown-IFSYN_SIM_ENGINE notice) surface in the service's
    // structured log, rate-limited at the log itself.
    obs::ObsContext obs{&artifacts->registry, nullptr, &ctx,
                        options_.event_log};
    std::optional<std::ofstream> trace_out;
    if (!request.trace_file.empty()) {
      // Open before running the engine: an unwritable path is a
      // structured error, and failing early wastes no work.
      trace_out.emplace(request.trace_file);
      if (!*trace_out) {
        return with_trace_id(error_response(
            request, "trace_unwritable",
            "cannot open trace_file '" + request.trace_file +
                "' for writing"));
      }
      obs.trace = &private_sink;
    } else if (options_.trace) {
      obs.trace = options_.trace;
    } else if (trace_json) {
      obs.trace = &private_sink;
    }

    Response response;
    switch (request.op) {
      case RequestOp::kSynth:
        response = execute_synth(request, *interned, obs, *artifacts);
        break;
      case RequestOp::kExplore:
        response = execute_explore(request, *interned, obs, *artifacts);
        break;
      case RequestOp::kCheck:
        response = execute_check(request, *interned, obs);
        break;
      case RequestOp::kMetrics:
      case RequestOp::kStats:
        break;  // handled above
    }
    response.spec_hash = interned->hash;
    response.artifacts = std::move(artifacts);

    if (obs.trace == &private_sink) {
      const std::string json = private_sink.to_json();
      if (trace_out) {
        *trace_out << json;
        trace_out->flush();
        if (!*trace_out) {
          response.ok = false;
          response.error = {"trace_unwritable",
                            "write to trace_file '" + request.trace_file +
                                "' failed"};
        }
      }
      if (trace_json) *trace_json = json;
    }
    return with_trace_id(std::move(response));
  } catch (const InternalError& e) {
    return with_trace_id(error_response(request, "internal", e.what()));
  } catch (const std::exception& e) {
    return with_trace_id(error_response(request, "internal", e.what()));
  }
}

Response Service::execute_synth(const Request& request,
                                const InternedSpec& spec,
                                const obs::ObsContext& obs,
                                RequestArtifacts& artifacts) {
  const RequestOptions& ro = request.options;
  const core::SynthesisOptions options = synthesis_options(ro, spec, obs);

  const spec::System& original = *spec.system;
  spec::System refined = original.clone(original.name() + "_refined");
  core::InterfaceSynthesizer synthesizer(options);
  Result<core::SynthesisReport> report = synthesizer.run(refined);
  if (!report.is_ok()) return status_response(request, report.status());

  std::optional<core::EquivalenceReport> equivalence;
  if (ro.cosim.value_or(true)) {
    Result<core::EquivalenceReport> eq = core::check_equivalence(
        original, refined, ro.max_time.value_or(kDefaultMaxTime), {}, obs);
    if (!eq.is_ok()) return status_response(request, eq.status());
    equivalence = std::move(eq).value();
  }

  core::ReportInputs inputs;
  inputs.refined = &refined;
  inputs.synthesis = &*report;
  inputs.equivalence = equivalence ? &*equivalence : nullptr;
  const obs::MetricsSnapshot snapshot = artifacts.registry.snapshot();
  inputs.metrics = &snapshot;

  Response response;
  response.id = request.id;
  response.op = request_op_name(request.op);
  response.report = core::render_markdown_report(inputs);
  artifacts.refined = std::move(refined);
  if (equivalence && !equivalence->equivalent) {
    response.ok = false;
    response.error = {"not_equivalent",
                      "co-simulation found " +
                          std::to_string(equivalence->mismatches.size()) +
                          " mismatch(es); see report"};
  } else {
    response.ok = true;
  }
  return response;
}

Response Service::execute_explore(const Request& request,
                                  const InternedSpec& spec,
                                  const obs::ObsContext& obs,
                                  RequestArtifacts& artifacts) {
  const RequestOptions& ro = request.options;
  explore::ExploreOptions options;
  options.threads = std::clamp(ro.threads.value_or(1), 1,
                               options_.max_request_threads);
  options.top_k = ro.top_k.value_or(0);
  if (ro.sim_max_time) options.sim_max_time = *ro.sim_max_time;
  // Unlike synth, exploration keeps ExploreOptions' own arbitrate
  // default (true): validation co-simulates with the arbitrated bus
  // model, which is correct for any channel mix. The per-spec default
  // only describes the single-design synthesis flow.
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
  options.shared_cache = &estimation_cache_;
  options.cache_scope =
      estimation_scope(spec, options.compute_cycles_override);
  options.obs = obs;

  explore::Explorer explorer(*spec.system, options);
  Result<explore::ExplorationResult> result = explorer.run();
  if (!result.is_ok()) return status_response(request, result.status());

  Response response;
  response.id = request.id;
  response.op = request_op_name(request.op);
  response.report =
      ro.exploration_json
          ? explore::render_exploration_json(*spec.system, options, *result)
          : explore::render_exploration_markdown(*spec.system, options,
                                                 *result);
  response.ok = true;
  for (std::size_t index : result->validated) {
    const explore::PointResult& point = result->points[index];
    if (!point.sim_ok || !point.equivalent) {
      response.ok = false;
      response.error = {"check_failed",
                        "validated point " + std::to_string(point.point.index) +
                            " failed co-simulation; see report"};
      break;
    }
  }
  options.obs = {};  // its sinks do not outlive this request
  artifacts.explore_options = std::move(options);
  artifacts.exploration = std::move(result).value();
  return response;
}

Response Service::execute_check(const Request& request,
                                const InternedSpec& spec,
                                const obs::ObsContext& obs) {
  const RequestOptions& ro = request.options;
  core::SynthesisOptions options = synthesis_options(ro, spec, obs);
  // Collect the full diagnostic list instead of failing synthesis on the
  // first finding.
  options.run_checker = false;

  spec::System system = spec.system->clone(spec.system->name());
  const std::map<std::string, long long> compute_snapshot =
      check::snapshot_compute_cycles(system, options.compute_cycles_override);

  core::InterfaceSynthesizer synthesizer(options);
  Result<core::SynthesisReport> synthesized = synthesizer.run(system);
  if (!synthesized.is_ok()) {
    return status_response(request, synthesized.status());
  }

  check::CheckOptions check_options;
  check_options.compute_cycles_override = compute_snapshot;
  const check::CheckReport report =
      check::run_checks(system, check_options, obs);

  Response response;
  response.id = request.id;
  response.op = request_op_name(request.op);
  if (report.clean()) {
    std::size_t refined_buses = 0;
    for (const auto& bus : system.buses()) {
      if (bus->generated()) ++refined_buses;
    }
    std::ostringstream os;
    os << "check clean: " << refined_buses << " bus(es), "
       << system.channels().size() << " channel(s), 0 diagnostics\n";
    response.report = os.str();
    response.ok = true;
  } else {
    response.report = report.to_string();
    response.ok = false;
    response.error = {"check_failed",
                      std::to_string(report.errors()) + " error(s), " +
                          std::to_string(report.warnings()) + " warning(s)"};
  }

  // Opt-in dynamic conformance: run the refined system and diff the
  // trace-mined protocol automaton against the static extraction. The
  // mined report is deterministic for a given spec/options/engine, so it
  // stays inside the response's determinism contract.
  if (ro.conform.value_or(false)) {
    c_conform_requests_.add(1);
    sim::SimulationRun run = sim::simulate(
        system, ro.max_time.value_or(kDefaultMaxTime), /*trace=*/true, obs);
    if (!run.result.status.is_ok()) {
      return status_response(request, run.result.status);
    }
    const check::ConformanceReport mined =
        check::mine_and_diff(system, run.kernel->trace(), obs);
    c_conform_disagreements_.add(
        static_cast<long long>(mined.disagreements.size()));
    std::ostringstream os;
    std::string detail = mined.to_string();
    if (!detail.empty()) os << detail << "\n";
    // A skipped lane was never checked, so it never counts as clean.
    const bool complete = mined.skipped.empty();
    os << "conform "
       << (!mined.clean() ? "FAILED" : complete ? "clean" : "INCOMPLETE")
       << ": " << mined.lanes_mined << " lane(s), "
       << mined.transactions_mined << " transaction(s), "
       << mined.edges_checked << " edge(s), "
       << mined.disagreements.size() << " disagreement(s), "
       << mined.skipped.size() << " skipped\n";
    response.report += os.str();
    if (mined.clean() && complete) {
      c_conform_clean_.add(1);
    } else if (response.ok) {
      response.ok = false;
      response.error =
          mined.clean()
              ? ErrorInfo{"conform_incomplete",
                          std::to_string(mined.skipped.size()) +
                              " lane(s) skipped; see report"}
              : ErrorInfo{"conform_failed",
                          std::to_string(mined.disagreements.size()) +
                              " trace/static disagreement(s); see report"};
    }
  }
  return response;
}

std::string Service::metrics_text() const {
  return registry_.snapshot().to_prometheus_text();
}

std::string Service::stats_json() const {
  const Clock::time_point now = Clock::now();
  JsonObject root;
  {
    std::lock_guard<std::mutex> lock(mu_);
    root["queue_depth"] = static_cast<double>(queue_.size());
    root["workers"] = static_cast<double>(workers_.size());
    root["stopping"] = stopping_;
  }
  JsonArray inflight;
  {
    std::lock_guard<std::mutex> slots_lock(slots_mu_);
    for (const WorkerSlot& slot : slots_) {
      JsonObject worker;
      worker["busy"] = slot.busy;
      if (slot.busy) {
        worker["request_id"] = slot.request_id;
        worker["trace_id"] = slot.trace_id;
        worker["op"] = slot.op;
        worker["age_us"] = static_cast<double>(us_between(slot.start, now));
        worker["deadline_overdue_us"] = static_cast<double>(
            slot.deadline && now > *slot.deadline
                ? us_between(*slot.deadline, now)
                : 0);
      }
      inflight.push_back(Json(std::move(worker)));
    }
  }
  root["inflight"] = Json(std::move(inflight));
  JsonObject program_cache;
  program_cache["size"] = static_cast<double>(program_cache_.size());
  program_cache["capacity"] = static_cast<double>(program_cache_.capacity());
  program_cache["hits"] = static_cast<double>(program_cache_.hits());
  program_cache["misses"] = static_cast<double>(program_cache_.misses());
  program_cache["evictions"] =
      static_cast<double>(program_cache_.evictions());
  // The level new simulations compile at (IFSYN_SIM_OPT, read live).
  // Artifacts are keyed per level, so mixed-level clients coexist in the
  // same cache without ever sharing an artifact across levels.
  program_cache["opt_level"] = static_cast<double>(
      static_cast<int>(sim::bytecode::opt_level_from_env()));
  root["program_cache"] = Json(std::move(program_cache));
  // The engine new simulations select (IFSYN_SIM_ENGINE, read live, like
  // opt_level above).
  root["sim_engine"] = std::string(sim::engine_name(sim::engine_from_env()));
  JsonObject counters;
  counters["submitted"] = static_cast<double>(c_submitted_.value());
  counters["ok"] = static_cast<double>(c_ok_.value());
  counters["error"] = static_cast<double>(c_error_.value());
  counters["admission_rejected"] = static_cast<double>(c_rejected_.value());
  counters["deadline_exceeded"] = static_cast<double>(c_deadline_.value());
  counters["conform_requests"] = static_cast<double>(c_conform_requests_.value());
  counters["conform_clean"] = static_cast<double>(c_conform_clean_.value());
  counters["conform_disagreements"] =
      static_cast<double>(c_conform_disagreements_.value());
  root["counters"] = Json(std::move(counters));
  return Json(std::move(root)).dump();
}

}  // namespace ifsyn::serve
