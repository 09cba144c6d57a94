// Deterministic work gate for the simulation data plane. It pins the exact
// sim.vm.condition_evals, sim.vm.executed_ops and sim.wakeups.condition of
// one fixed refined system: the first point the FLC design-space sweep
// validates (half handshake, per-accessor grouping, 1-bit buses). These
// counters are pure functions of the system, so a change in how often the
// kernel evaluates parked `wait until` conditions moves them exactly, with
// no timing noise. Evaluating every parked condition after every commit,
// the kernel's behavior before read-set sensitivity, gives 803,736
// condition evaluations and 6,371,023 executed ops on this point.
//
// The second gate pins the same counters, plus delta cycles and every
// wakeup kind, over the whole top-8 sweep (the perfbench explore_flc
// sweep's validation work). A change to the cost of simulating must leave
// all of them where they are: they measure the simulated work, not its
// price.
#include <gtest/gtest.h>

#include <string>

#include "explore/explorer.hpp"
#include "obs/metrics.hpp"
#include "scoped_env.hpp"
#include "spec/system.hpp"
#include "suite/flc.hpp"

namespace ifsyn {
namespace {

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const obs::MetricsSnapshot::Entry* entry = snap.find(name);
  EXPECT_NE(entry, nullptr) << name;
  return entry != nullptr ? entry->counter : 0;
}

/// The FLC sweep's options (perfbench explore_flc, bench_explore_scaling),
/// validating the `top_k` best points on one thread.
explore::ExploreOptions flc_sweep_options(int top_k,
                                          obs::MetricsRegistry* registry) {
  explore::ExploreOptions options;
  options.space.protocols = {spec::ProtocolKind::kFullHandshake,
                             spec::ProtocolKind::kHalfHandshake,
                             spec::ProtocolKind::kFixedDelay};
  options.space.alternative_groupings = true;
  options.top_k = top_k;
  options.threads = 1;
  options.compute_cycles_override = {
      {"EVAL_R3", suite::FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", suite::FlcCalibration::kConvR2ComputeCycles},
  };
  options.obs.metrics = registry;
  return options;
}

TEST(SimWorkGate, FlcFirstValidatedPointCounts) {
  // The sim.vm.* counters exist only on the bytecode VM.
  const ScopedEnv engine("IFSYN_SIM_ENGINE", "vm");
  const spec::System system = suite::make_flc_full();
  obs::MetricsRegistry registry;
  const explore::ExploreOptions options = flc_sweep_options(1, &registry);

  const explore::Explorer explorer(system, options);
  const Result<explore::ExplorationResult> result = explorer.run();
  ASSERT_TRUE(result.is_ok()) << result.status();
  ASSERT_EQ(result->validated.size(), 1u);
  const explore::PointResult& point = result->points[result->validated[0]];
  EXPECT_EQ(point.point.protocol, spec::ProtocolKind::kHalfHandshake);
  EXPECT_EQ(point.grouping_name, "per-accessor");
  EXPECT_EQ(point.point.width, 1);
  EXPECT_TRUE(point.sim_ok);

  // Only the refined run feeds the "sim." metrics (the shared original
  // run is uninstrumented), so these are that one simulation's counts.
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter(snap, "sim.runs"), 1u);
  EXPECT_EQ(counter(snap, "sim.vm.condition_evals"), 125'667u);
  EXPECT_EQ(counter(snap, "sim.vm.executed_ops"), 3'397'312u);
  EXPECT_EQ(counter(snap, "sim.wakeups.condition"), 61'406u);
}

TEST(SimWorkGate, FlcTopEightSweepCounts) {
  const ScopedEnv engine("IFSYN_SIM_ENGINE", "vm");
  const spec::System system = suite::make_flc_full();
  obs::MetricsRegistry registry;
  const explore::Explorer explorer(system, flc_sweep_options(8, &registry));
  const Result<explore::ExplorationResult> result = explorer.run();
  ASSERT_TRUE(result.is_ok()) << result.status();
  ASSERT_EQ(result->validated.size(), 8u);
  for (const std::size_t index : result->validated) {
    EXPECT_TRUE(result->points[index].sim_ok) << index;
  }

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter(snap, "sim.runs"), 8u);
  EXPECT_EQ(counter(snap, "sim.vm.executed_ops"), 10'604'478u);
  EXPECT_EQ(counter(snap, "sim.vm.condition_evals"), 359'408u);
  EXPECT_EQ(counter(snap, "sim.delta_cycles"), 192'408u);
  EXPECT_EQ(counter(snap, "sim.wakeups.condition"), 164'752u);
  EXPECT_EQ(counter(snap, "sim.wakeups.time"), 214'155u);
  EXPECT_EQ(counter(snap, "sim.wakeups.event"), 38'060u);
  EXPECT_EQ(counter(snap, "sim.wakeups.bus_grant"), 0u);
}

}  // namespace
}  // namespace ifsyn
