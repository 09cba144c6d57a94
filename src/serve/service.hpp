// ifsyn/serve/service.hpp
//
// Synthesis-as-a-service: a worker pool executing synth / explore /
// check requests against a set of process-wide shared artifact stores —
// the piece that turns the one-shot CLI flow into a front end that can
// drain a batch manifest or sit behind a JSONL loop.
//
// Architecture
// ------------
//   submit() ── admission control ──> bounded queue ──> N workers
//                    │ (queue full: structured                │
//                    │  admission_rejected, immediately)      v
//                    │                            execute(): resolve spec
//                    v                            via the interner, run
//             deadline stamped                    the engine, render the
//             at submission                       deterministic report
//
// Three shared stores, each an obs::MemoCache (compute-once, LRU-
// bounded, counter-instrumented in the service registry):
//
//   - SpecInterner        parse outcomes (system or error) by content
//                         hash; 64 entries
//   - EstimationCache     per-group Eq. 1 estimates, scope-qualified by
//                         spec hash + calibration fingerprint; 4096
//   - sim ProgramCache    compiled bytecode, installed process-wide so
//                         every simulation (cosim legs, validation runs)
//                         reuses compiled artifacts across requests; 128
//
// Determinism contract: a request's `report` and `spec_hash` are
// byte-identical whether the request runs alone, concurrently with
// others, or entirely from warm caches. Everything load-dependent —
// latencies, queue depth, shared-store hit rates — lives in the service
// registry (wall-clock class) and in the timing fields of the response,
// never in the report. Each request gets a private MetricsRegistry, so
// its report's deterministic metrics section reflects that request
// alone.
//
// Deadlines: checked when a worker dequeues the request and again after
// execution; a request past its deadline yields a structured
// deadline_exceeded error. In-flight engine work is never interrupted
// mid-run (the engines have no cancellation points), so a deadline
// bounds *response* usefulness, not worker occupancy — size the pool
// accordingly. No code path hangs or throws across the API boundary:
// engine exceptions surface as code "internal" error responses.
//
// Observability (all wall-clock class, outside the determinism
// contract):
//
//   - Tracing: every request is stamped with a trace ID ("t<seq>") at
//     admission. With a service-wide TraceSink configured
//     (ServiceOptions::trace), the service records the request's
//     lifecycle as one async span ("b"/"e") plus a flow arrow ("s"/"f")
//     from the submitter thread's submit slice to the worker's execute
//     slice, and threads a RequestContext into the engines so every
//     phase span lands in the same trace tagged args.trace_id.
//   - Quantiles: per-op latency (serve.latency.<op>_us), queue wait and
//     execute-time histograms feed p50/p95/p99 summaries in
//     metrics_text() (see obs/quantiles.hpp for the error bound).
//   - Watchdog: with watchdog_poll_ms > 0, a monitor thread polls the
//     per-worker in-flight table and exports serve.worker.<i>.* gauges
//     (in-flight request age, deadline overdue) plus aggregate
//     serve.inflight.* gauges — making the documented "worker stuck on
//     in-flight engine work past its deadline" hazard visible. Overdue
//     workers are reported to the EventLog (rate-limited).
//   - stats op: a request {"op":"stats"} answers with a JSON snapshot
//     of queue depth, per-worker in-flight state, and counters, over
//     the normal wire format — live introspection without a sidecar.
//   - Slow-request capture: with slow_trace_ms > 0 and a
//     slow_trace_dir, the slowest slow_trace_keep requests above the
//     threshold get their trace written to
//     <slow_trace_dir>/slow-<trace_id>.json. When no service-wide sink
//     is configured the capture carries full engine phase spans;
//     otherwise those spans are already in the service trace and the
//     capture holds the request's lifecycle summary.
//
// One Service per process: the bytecode program cache installs itself as
// the process-wide store (sim/bytecode/program_cache) for its lifetime.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "explore/estimation_cache.hpp"
#include "explore/explorer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "serve/request.hpp"
#include "serve/spec_intern.hpp"
#include "sim/bytecode/program_cache.hpp"
#include "util/status.hpp"

namespace ifsyn::serve {

struct ServiceOptions {
  /// Worker pool size.
  int workers = 1;
  /// Bounded request queue; submissions beyond this are rejected with a
  /// structured admission_rejected error (never blocked).
  std::size_t queue_capacity = 64;
  /// Default per-request deadline (ms); 0 = no deadline. A request's own
  /// deadline_ms overrides.
  std::uint64_t default_deadline_ms = 0;
  /// Cap on a single explore request's worker threads, so one request
  /// cannot oversubscribe the pool. Explore output is thread-count
  /// invariant, so capping never changes a report.
  int max_request_threads = 4;

  // ---- observability (all optional; non-owning pointers must outlive
  // the Service) ----
  /// Service-wide Chrome trace sink recording every request's lifecycle
  /// and (absent a per-request trace_file) its engine phase spans.
  obs::TraceSink* trace = nullptr;
  /// Structured event log for watchdog findings and service lifecycle.
  obs::EventLog* event_log = nullptr;
  /// Watchdog poll interval; 0 disables the monitor thread.
  std::uint64_t watchdog_poll_ms = 0;
  /// Capture traces of requests slower than this (total latency, ms);
  /// 0 disables. Requires slow_trace_dir.
  std::uint64_t slow_trace_ms = 0;
  /// Keep the N slowest captures; older/faster ones are deleted.
  std::size_t slow_trace_keep = 4;
  /// Directory receiving slow-<trace_id>.json captures.
  std::string slow_trace_dir;
};

/// What a request's engine run leaves behind for an in-process caller of
/// Service::execute: the one-shot CLI writes --metrics, --emit-vhdl,
/// --vcd, the traffic table and explore's --json from it. One allocation
/// per request; the engine's outputs are moved in, never copied or
/// re-run. Responses from submit() drop it, and render_response never
/// emits it.
struct RequestArtifacts {
  /// The request's full metrics registry (both determinism classes).
  obs::MetricsRegistry registry;
  /// The interned spec the request ran on.
  std::shared_ptr<const spec::System> spec;
  /// synth: the refined system the report describes.
  std::optional<spec::System> refined;
  /// explore: the sweep and the options it ran with, so the caller can
  /// render the format the request did not ask for.
  std::optional<explore::ExploreOptions> explore_options;
  std::optional<explore::ExplorationResult> exploration;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawn the worker pool. Idempotent.
  void start();

  /// Drain the queue, then join the workers. Requests already submitted
  /// are completed (their futures resolve); new submissions are rejected.
  void stop();

  /// Enqueue a request. The future always resolves — with the result, or
  /// with a structured admission/deadline/internal error.
  std::future<Response> submit(Request request);

  /// Execute synchronously on the caller's thread, bypassing the queue
  /// (the workers' inner path, the one-shot CLI's only path, and the
  /// deterministic unit-test surface). Needs no start(). The response
  /// carries its RequestArtifacts.
  Response execute(const Request& request);

  /// Service-level metrics (queue, latencies, shared-store counters).
  obs::MetricsSnapshot metrics_snapshot() const { return registry_.snapshot(); }
  /// Prometheus-style text exposition of metrics_snapshot().
  std::string metrics_text() const;
  /// JSON introspection snapshot (the "stats" op's report): queue depth,
  /// per-worker in-flight state, request counters. Wall-clock surface.
  std::string stats_json() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    obs::RequestContext ctx;  ///< lifecycle trace identity
  };

  /// What a worker is doing right now, published for the watchdog and
  /// the stats op. Guarded by slots_mu_ (never the queue lock, so
  /// introspection cannot contend with admission).
  struct WorkerSlot {
    bool busy = false;
    std::string request_id;
    std::string trace_id;
    std::string op;
    std::chrono::steady_clock::time_point start{};
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void worker_loop(std::size_t worker_index);
  void watchdog_loop();
  void watchdog_poll();
  /// execute() plus an optional out-param receiving the private
  /// engine-span trace JSON (set when a private sink was used and the
  /// caller asked for it — the slow-capture path).
  Response execute_traced(const Request& request, std::string* trace_json);
  void maybe_capture_slow(const Response& response, std::uint64_t total_us,
                          const std::string& engine_trace_json);
  Response execute_synth(const Request& request, const InternedSpec& spec,
                         const obs::ObsContext& obs,
                         RequestArtifacts& artifacts);
  Response execute_explore(const Request& request, const InternedSpec& spec,
                           const obs::ObsContext& obs,
                           RequestArtifacts& artifacts);
  Response execute_check(const Request& request, const InternedSpec& spec,
                         const obs::ObsContext& obs);

  ServiceOptions options_;
  obs::MetricsRegistry registry_;
  std::atomic<std::uint64_t> trace_seq_{0};

  // Shared stores (counters live in registry_, wall-clock class).
  SpecInterner interner_;
  explore::EstimationCache estimation_cache_;
  sim::bytecode::ProgramCache program_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::thread watchdog_;

  mutable std::mutex slots_mu_;
  std::vector<WorkerSlot> slots_;

  // Slow-request capture state: the kept captures sorted ascending by
  // latency, so the cheapest to evict is front.
  struct SlowCapture {
    std::uint64_t total_us = 0;
    std::string path;
  };
  std::mutex slow_mu_;
  std::vector<SlowCapture> slow_captures_;

  obs::Counter& c_submitted_;
  obs::Counter& c_ok_;
  obs::Counter& c_error_;
  obs::Counter& c_rejected_;
  obs::Counter& c_deadline_;
  // Trace-conformance mining on the check path (options.conform):
  // requests that opted in, how many came back clean, and the total
  // disagreements surfaced across the service's lifetime.
  obs::Counter& c_conform_requests_;
  obs::Counter& c_conform_clean_;
  obs::Counter& c_conform_disagreements_;
  obs::Gauge& g_queue_depth_;
  obs::Histogram& h_latency_us_;
  obs::Histogram& h_queue_wait_us_;
  obs::Histogram& h_execute_us_;
};

}  // namespace ifsyn::serve
