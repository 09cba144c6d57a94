// ifsyn/explore/explorer.hpp
//
// The design-space exploration engine: enumerate candidate
// implementations (explore/design_space), evaluate every point with the
// analytic PerformanceEstimator across a fixed-size thread pool with
// per-group memoization (explore/estimation_cache), collect the
// (total wires, worst-case clocks) Pareto front (explore/pareto), and
// validate the top-K survivors by actually generating their protocols and
// co-simulating the refined system against the original in the
// discrete-event sim — the paper's Fig. 7/8 methodology, industrialized
// into one parallel search.
//
// Determinism guarantee: for a given system and options, every byte of
// ExplorationResult is identical regardless of `threads`. Work is fanned
// out by point index and merged in index order (explore/work_queue); the
// memo cache computes each key exactly once; pruning and top-K selection
// are pure functions of the estimates. Nothing in the result depends on
// wall-clock time or scheduling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "explore/design_space.hpp"
#include "explore/estimation_cache.hpp"
#include "explore/pareto.hpp"
#include "obs/scoped_timer.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::explore {

struct ExploreOptions {
  DesignSpaceOptions space;
  /// Fixed-size worker pool; 1 = fully sequential. Does not change any
  /// output (see file comment).
  int threads = 1;
  /// Pareto-front survivors to validate in the discrete-event simulator
  /// (ascending wire count). 0 disables validation.
  int top_k = 0;
  /// Simulation budget per validation run (cycles).
  std::uint64_t sim_max_time = 50'000'000;
  /// Serialize concurrent bus masters in the generated protocols.
  bool arbitrate = true;
  /// Per-process execution-time constraints (estimator clocks): points
  /// whose estimate exceeds a limit are excluded from the front — Fig. 7's
  /// "2000-clock constraint on CONV_R2" as a first-class input.
  std::map<std::string, long long> max_execution_clocks;
  /// Calibration, as in core::SynthesisOptions.
  std::map<std::string, long long> compute_cycles_override;
  /// Optional process-wide estimation store shared across runs (the serve
  /// front end's cross-request cache). The explorer still keeps its
  /// per-run cache — whose hit/miss counts stay deterministic and feed
  /// the report — and consults the shared store only on per-run misses,
  /// under keys qualified by `cache_scope`. Must outlive the run; null =
  /// no sharing (the one-shot CLI shape).
  EstimationCache* shared_cache = nullptr;
  /// Key qualifier for `shared_cache` entries: anything that changes what
  /// an estimate means for the same group signature (spec content hash,
  /// compute-cycle overrides). Ignored without a shared cache.
  std::string cache_scope;
  /// Optional instrumentation. With a registry attached, "explore.*"
  /// counters (points, cache hits, worker busy time) and the validated
  /// runs' "sim.*" metrics accumulate there; with a trace sink attached,
  /// phases and worker drains become Chrome-trace spans. When no registry
  /// is given the explorer uses a private one, so ExplorationResult::
  /// metrics is populated either way.
  obs::ObsContext obs;
};

/// Everything known about one design point after the run.
struct PointResult {
  DesignPoint point;
  std::string grouping_name;  ///< plan name, for reports
  bool pruned = false;        ///< skipped by the pruning policy
  bool feasible = false;      ///< every bus group satisfies Eq. 1
  bool meets_constraints = false;  ///< per-process clock limits hold
  int total_wires = 0;             ///< data + control + id over all buses
  int data_pins = 0;               ///< data lines only (Fig. 7's "pins")
  long long worst_case_clocks = 0;
  std::string limiting_process;  ///< process attaining worst_case_clocks

  // ---- filled for validated (top-K) points ----
  bool validated = false;
  bool sim_ok = false;        ///< refinement + simulation succeeded
  bool equivalent = false;    ///< co-simulation matched the original
  std::uint64_t simulated_clocks = 0;  ///< refined run's end-to-end time
};

/// Per-run convenience view of the "explore.*" registry metrics (the
/// registry is the source of truth; these are the deltas this run added).
/// All values are deterministic across thread counts.
struct ExplorationStats {
  std::size_t total_points = 0;
  std::size_t pruned_points = 0;
  std::size_t evaluated_points = 0;
  std::size_t feasible_points = 0;
  std::size_t candidate_points = 0;  ///< feasible and within constraints
  std::size_t validated_points = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct ExplorationResult {
  /// Every enumerated point, in enumeration (index) order.
  std::vector<PointResult> points;
  /// Front over the candidate points (feasible + constraints met).
  ParetoFront front;
  /// Indices of the points validated in the sim, ascending wire count.
  std::vector<std::size_t> validated;
  ExplorationStats stats;
  /// Snapshot of the metrics registry at the end of the run (the attached
  /// one, or the explorer's private registry when none was attached). The
  /// deterministic section is byte-identical across thread counts.
  obs::MetricsSnapshot metrics;

  const PointResult& result_for(const ParetoEntry& entry) const {
    return points[entry.point_index];
  }
};

class Explorer {
 public:
  /// `system` is the partitioned (and typically grouped) original; it is
  /// cloned internally and never mutated. It must outlive the explorer.
  Explorer(const spec::System& system, ExploreOptions options = {});

  Result<ExplorationResult> run() const;

 private:
  const spec::System& system_;
  ExploreOptions options_;
};

}  // namespace ifsyn::explore
