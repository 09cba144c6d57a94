// perfbench/src/replay.hpp
//
// The traced run (--trace 1). For one workload it runs a fixed, seeded
// input set four ways:
//
//   A   the workload itself, untraced, through the same entry points as
//       the end-to-end run (Service::submit / Explorer::run). It yields the
//       reference outputs, the serve-layer numbers (Response.queue_us and
//       elapsed_us, Service::metrics_snapshot) and explore's parallel
//       efficiency.
//   B   a single-thread replay of the same inputs through each layer's
//       public functions, tracing off: the baseline for the tracing
//       overhead and the source of the allocation counts.
//   C1  the same replay with every call wrapped in an obs::Span recorded
//       into one obs::TraceSink; the per-layer times come from here.
//   C2  C1 again; its deterministic counts must equal C1's exactly.
//
// Every replayed report must equal A's byte for byte. The trace of C1 (and
// A's service requests, reconstructed from their timestamps) is written as
// Chrome-trace JSON.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct TracedRun {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable summary
};

TracedRun run_traced(const std::string& workload, std::uint64_t seed,
                     const std::string& trace_path);

}  // namespace perfbench
