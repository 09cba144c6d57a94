// ifsyn/obs/scoped_timer.hpp
//
// RAII phase timers over the metrics registry and the trace sink, plus
// ObsContext — the pair of non-owning pointers every instrumented layer
// (sim kernel, synthesis pipeline, exploration engine) accepts through its
// options struct. Both pointers are optional; a default ObsContext makes
// every instrumentation site a no-op, so observability stays zero-cost
// when unused.
//
//   obs::Span span(ctx.trace, "P3 bus generation", "synth");
//     — emits one Chrome complete event covering the scope.
//
//   obs::ScopedTimer timer(ctx, "synth.phase.p3_bus_generation_us",
//                          "P3 bus generation", "synth");
//     — same span, and additionally accumulates the elapsed host
//       microseconds into a kWallClock counter of that name.
#pragma once

#include <chrono>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace ifsyn::obs {

class EventLog;

/// Non-owning observability hooks, passed by value through option structs.
/// Callers own the registry/sink and keep them alive across the call.
/// `request`, when set by a service front end, attributes every span the
/// instrumented code emits to the owning request (args.trace_id in the
/// Chrome trace); engine code never reads it directly. `log` (optional,
/// rate-limited — see obs/log.hpp) carries structured warnings such as the
/// sim's unknown-IFSYN_SIM_ENGINE notice.
struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  const RequestContext* request = nullptr;
  EventLog* log = nullptr;

  bool enabled() const { return metrics != nullptr || trace != nullptr; }
};

/// Emits one complete ("ph":"X") trace event spanning the enclosing scope.
/// A null sink makes construction and destruction free of clock reads.
class Span {
 public:
  Span(TraceSink* sink, std::string name, std::string category = "",
       const RequestContext* request = nullptr)
      : sink_(sink),
        request_(request),
        name_(std::move(name)),
        category_(std::move(category)) {
    if (sink_) start_us_ = sink_->now_us();
  }
  ~Span() {
    if (sink_) {
      sink_->duration_event(name_, category_, start_us_,
                            sink_->now_us() - start_us_, request_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSink* sink_;
  const RequestContext* request_;
  std::string name_;
  std::string category_;
  std::uint64_t start_us_ = 0;
};

/// Span + wall-clock accounting: accumulates the scope's elapsed host
/// microseconds into `ctx.metrics`' counter `metric_name` (registered as
/// kWallClock) and emits the same trace span as Span.
class ScopedTimer {
 public:
  ScopedTimer(const ObsContext& ctx, const std::string& metric_name,
              std::string span_name, std::string category = "")
      : trace_(ctx.trace),
        request_(ctx.request),
        counter_(ctx.metrics ? &ctx.metrics->counter(metric_name,
                                                     Determinism::kWallClock)
                             : nullptr),
        name_(std::move(span_name)),
        category_(std::move(category)) {
    if (trace_ || counter_) start_ = std::chrono::steady_clock::now();
    if (trace_) trace_start_us_ = trace_->now_us();
  }

  ~ScopedTimer() {
    if (!trace_ && !counter_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const std::uint64_t us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    if (counter_) counter_->add(us);
    if (trace_) {
      trace_->duration_event(name_, category_, trace_start_us_, us, request_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TraceSink* trace_;
  const RequestContext* request_;
  Counter* counter_;
  std::string name_;
  std::string category_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t trace_start_us_ = 0;
};

}  // namespace ifsyn::obs
