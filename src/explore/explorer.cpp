#include "explore/explorer.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "bus/bus_generator.hpp"
#include "core/equivalence.hpp"
#include "estimate/rate_model.hpp"
#include "explore/work_queue.hpp"
#include "partition/partitioner.hpp"
#include "protocol/id_assignment.hpp"
#include "protocol/protocol_generator.hpp"
#include "spec/analysis.hpp"
#include "util/assert.hpp"

namespace ifsyn::explore {

namespace {

/// Full estimation of one (group, width, protocol) unit — the memoized
/// computation. Deterministic: accessor iteration is name-sorted.
GroupEstimate estimate_group(const spec::System& system,
                             const estimate::PerformanceEstimator& estimator,
                             const bus::BusGenerator& generator,
                             const std::vector<std::string>& group,
                             const DesignPoint& point) {
  spec::BusGroup trial;
  trial.name = "__explore_trial";
  trial.channel_names = group;

  bus::BusGenOptions gen_options;
  gen_options.protocol = point.protocol;
  gen_options.fixed_delay_cycles = point.fixed_delay_cycles;
  const bus::WidthEvaluation eval =
      generator.evaluate_width(trial, point.width, gen_options);

  GroupEstimate est;
  est.feasible = eval.feasible;
  est.bus_rate = eval.bus_rate;
  est.sum_average_rates = eval.sum_average_rates;
  est.id_bits = protocol::id_bits_for(static_cast<int>(group.size()));
  est.control_lines =
      estimate::protocol_timing(point.protocol, point.fixed_delay_cycles)
          .control_lines;
  est.total_wires = point.width + est.control_lines + est.id_bits;

  std::set<std::string> accessors;
  for (const std::string& name : group) {
    const spec::Channel* ch = system.find_channel(name);
    IFSYN_ASSERT_MSG(ch, "unknown channel " << name);
    accessors.insert(ch->accessor);
  }
  for (const std::string& accessor : accessors) {
    const long long t = estimator.execution_time(
        accessor, point.width, point.protocol, point.fixed_delay_cycles);
    if (t > est.worst_accessor_clocks) {
      est.worst_accessor_clocks = t;
      est.worst_accessor = accessor;
    }
  }
  return est;
}

}  // namespace

Explorer::Explorer(const spec::System& system, ExploreOptions options)
    : system_(system), options_(std::move(options)) {}

Result<ExplorationResult> Explorer::run() const {
  // Work on an annotated clone; the caller's system is never touched.
  spec::System base = system_.clone(system_.name());
  IFSYN_RETURN_IF_ERROR(base.validate());
  IFSYN_RETURN_IF_ERROR(spec::annotate_channel_accesses(base));

  estimate::PerformanceEstimator estimator(base);
  for (const auto& [process, cycles] : options_.compute_cycles_override) {
    estimator.set_compute_cycles(process, cycles);
  }

  const DesignSpace space(base, estimator, options_.space);
  IFSYN_RETURN_IF_ERROR(space.validate());
  for (const auto& [process, limit] : options_.max_execution_clocks) {
    if (!base.find_process(process)) {
      return invalid_argument("constraint names unknown process " + process);
    }
    if (limit <= 0) {
      return invalid_argument("non-positive clock limit for " + process);
    }
  }

  const std::vector<DesignPoint> points = space.enumerate();

  const bus::BusGenerator generator(base, estimator);

  // Metrics are always collected: into the caller's registry when one is
  // attached (so they merge with sim/synth metrics), else a private one.
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry& reg =
      options_.obs.metrics ? *options_.obs.metrics : local_registry;
  obs::ObsContext obs{&reg, options_.obs.trace, options_.obs.request};
  obs::Counter& c_total = reg.counter("explore.points.total");
  obs::Counter& c_pruned = reg.counter("explore.points.pruned");
  obs::Counter& c_evaluated = reg.counter("explore.points.evaluated");
  obs::Counter& c_feasible = reg.counter("explore.points.feasible");
  obs::Counter& c_candidates = reg.counter("explore.points.candidates");
  obs::Counter& c_validated = reg.counter("explore.points.validated");
  obs::Counter& c_hits = reg.counter("explore.cache.hits");
  obs::Counter& c_misses = reg.counter("explore.cache.misses");
  obs::Counter& c_busy = reg.counter("explore.worker_busy_us",
                                     obs::Determinism::kWallClock);
  // The registry may be shared across runs; stats report this run's delta.
  const std::uint64_t hits0 = c_hits.value();
  const std::uint64_t misses0 = c_misses.value();
  EstimationCache cache(/*capacity=*/0, &c_hits, &c_misses);

  ExplorationResult out;
  out.points.resize(points.size());
  out.stats.total_points = points.size();
  c_total.add(points.size());

  const WorkQueueObs estimate_obs{options_.obs.trace, &c_busy, "estimate",
                                  options_.obs.request};
  std::optional<obs::ScopedTimer> phase_timer;
  phase_timer.emplace(obs, "explore.phase.estimate_us", "explore: estimate",
                      "explore");

  // ---- phase 1: estimate every point across the pool -------------------
  run_indexed(points.size(), options_.threads, [&](std::size_t i) {
    const DesignPoint& point = points[i];
    const GroupingPlan& plan = space.groupings()[point.grouping];
    PointResult result;
    result.point = point;
    result.grouping_name = plan.name;

    if (eq1_prunes(space, point)) {
      result.pruned = true;
      out.points[i] = std::move(result);
      return;
    }

    result.feasible = true;
    for (const auto& group : plan.groups) {
      EstimationKey key;
      key.group_signature = GroupingPlan::group_signature(group);
      key.width = point.width;
      key.protocol = point.protocol;
      key.fixed_delay_cycles = point.fixed_delay_cycles;
      bool was_hit = false;
      const GroupEstimate est = cache.get_or_compute(
          key,
          [&] {
            // Per-run miss: consult the cross-run shared store (when one
            // is attached) before computing. The shared store's hit rate
            // depends on what other runs did, but the *value* per key
            // never does, so the run's output stays deterministic.
            if (options_.shared_cache) {
              EstimationKey shared_key = key;
              shared_key.scope = options_.cache_scope;
              return options_.shared_cache->get_or_compute(shared_key, [&] {
                return estimate_group(base, estimator, generator, group,
                                      point);
              });
            }
            return estimate_group(base, estimator, generator, group, point);
          },
          &was_hit);
      if (options_.obs.trace && !was_hit) {
        options_.obs.trace->instant_event(
            "estimate " + key.group_signature + " w" +
                std::to_string(key.width),
            "explore");
      }
      result.feasible = result.feasible && est.feasible;
      result.total_wires += est.total_wires;
      result.data_pins += point.width;
      if (est.worst_accessor_clocks > result.worst_case_clocks) {
        result.worst_case_clocks = est.worst_accessor_clocks;
        result.limiting_process = est.worst_accessor;
      }
    }

    result.meets_constraints = true;
    for (const auto& [process, limit] : options_.max_execution_clocks) {
      if (estimator.execution_time(process, point.width, point.protocol,
                                   point.fixed_delay_cycles) > limit) {
        result.meets_constraints = false;
        break;
      }
    }
    out.points[i] = std::move(result);
  }, estimate_obs);
  phase_timer.reset();

  // ---- phase 2: merge in point order, build the front ------------------
  phase_timer.emplace(obs, "explore.phase.merge_us", "explore: merge",
                      "explore");
  std::vector<ParetoEntry> candidates;
  for (const PointResult& result : out.points) {
    if (result.pruned) {
      ++out.stats.pruned_points;
      continue;
    }
    ++out.stats.evaluated_points;
    if (!result.feasible) continue;
    ++out.stats.feasible_points;
    if (!result.meets_constraints) continue;
    ++out.stats.candidate_points;
    candidates.push_back(ParetoEntry{result.point.index, result.total_wires,
                                     result.worst_case_clocks});
  }
  out.front = ParetoFront::build(std::move(candidates));
  c_pruned.add(out.stats.pruned_points);
  c_evaluated.add(out.stats.evaluated_points);
  c_feasible.add(out.stats.feasible_points);
  c_candidates.add(out.stats.candidate_points);
  out.stats.cache_hits = c_hits.value() - hits0;
  out.stats.cache_misses = c_misses.value() - misses0;
  phase_timer.reset();

  // ---- phase 3: validate the top-K survivors in the sim ----------------
  if (options_.top_k > 0) {
    phase_timer.emplace(obs, "explore.phase.validate_us",
                        "explore: validate", "explore");
    const WorkQueueObs validate_obs{options_.obs.trace, &c_busy, "validate",
                                    options_.obs.request};
    for (const ParetoEntry& entry : out.front.entries()) {
      if (out.validated.size() >=
          static_cast<std::size_t>(options_.top_k)) {
        break;
      }
      out.validated.push_back(entry.point_index);
    }
    // The original system's run is the same for every candidate, so it is
    // simulated exactly once here and shared (read-only) by the workers
    // below — previously each of the K validations re-simulated it. A
    // failed original leaves every candidate's sim_ok false, matching the
    // old per-point behavior. Uninstrumented, like check_equivalence's
    // original leg: only refined runs feed the "sim." metrics.
    std::optional<sim::SimulationRun> original_run;
    {
      obs::Span span(options_.obs.trace, "simulate original", "explore",
                     options_.obs.request);
      original_run.emplace(sim::simulate(base, options_.sim_max_time));
    }
    run_indexed(out.validated.size(), options_.threads, [&](std::size_t v) {
      PointResult& result = out.points[out.validated[v]];
      const DesignPoint& point = result.point;
      const GroupingPlan& plan = space.groupings()[point.grouping];
      result.validated = true;
      obs::Span span(options_.obs.trace,
                     "validate point " + std::to_string(point.index),
                     "explore", options_.obs.request);

      spec::System refined =
          base.clone(base.name() + "_x" + std::to_string(point.index));
      refined.clear_buses();
      for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        const Status grouped = partition::group_channels(
            refined, plan.bus_names[g], plan.groups[g]);
        if (!grouped.is_ok()) return;  // sim_ok stays false
        refined.find_bus(plan.bus_names[g])->width = point.width;
      }

      protocol::ProtocolGenOptions pg_options;
      pg_options.protocol = point.protocol;
      pg_options.fixed_delay_cycles = point.fixed_delay_cycles;
      pg_options.arbitrate = options_.arbitrate;
      pg_options.obs = obs;
      protocol::ProtocolGenerator pg(pg_options);
      if (!pg.generate_all(refined).is_ok()) return;

      // The refined run simulates under the shared registry: validated
      // points' "sim.*" metrics (bus utilization, handshake latency)
      // accumulate alongside the "explore.*" ones. The event set is a
      // pure function of the point, so the sums stay deterministic.
      const Result<core::EquivalenceReport> eq = core::check_equivalence_with(
          base, *original_run, refined, options_.sim_max_time, {}, obs);
      if (!eq.is_ok()) return;
      result.sim_ok = true;
      result.equivalent = eq->equivalent;
      result.simulated_clocks = eq->refined_time;
    }, validate_obs);
    out.stats.validated_points = out.validated.size();
    c_validated.add(out.validated.size());
    phase_timer.reset();
  }

  out.metrics = reg.snapshot();
  return out;
}

}  // namespace ifsyn::explore
