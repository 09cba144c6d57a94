// Regression coverage for the fixed-delay rate-modeling bug: the rate
// model used to default `fixed_delay_cycles` to 2, so every fixed-delay
// bus with a different per-word delay was priced at the default -- wide
// enough to look feasible when it was not. These tests pin the corrected
// arithmetic at a configuration where the delay flips Eq. 1 feasibility,
// and check that the bus generator and the explorer agree on it.
#include <gtest/gtest.h>

#include "bus/bus_generator.hpp"
#include "estimate/rate_model.hpp"
#include "explore/explorer.hpp"
#include "partition/partitioner.hpp"
#include "spec/analysis.hpp"
#include "spec/system.hpp"

namespace ifsyn {
namespace {

using namespace spec;

/// Two processes on M1, each writing one 8-bit variable on M2 once per
/// activation: two single-word write channels sharing bus "B". With
/// compute pinned at 3 cycles, an 8-bit fixed-delay bus is feasible at
/// delay 2 (rate 4 >= demand 3.2) and infeasible at delay 4
/// (rate 2 < demand ~2.29) -- the flip the old default hid.
System make_two_writer_system() {
  System s("fixed_delay_regression");
  s.add_variable(Variable("V1", Type::bits(8)));
  s.add_variable(Variable("V2", Type::bits(8)));

  Process p1;
  p1.name = "P1";
  p1.body.push_back(assign("V1", lit(42)));
  s.add_process(std::move(p1));

  Process p2;
  p2.name = "P2";
  p2.body.push_back(assign("V2", lit(7)));
  s.add_process(std::move(p2));

  partition::ModuleAssignment m1{"M1", {"P1", "P2"}, {}};
  partition::ModuleAssignment m2{"M2", {}, {"V1", "V2"}};
  EXPECT_TRUE(partition::apply_partition(s, {m1, m2}).is_ok());
  EXPECT_TRUE(partition::group_all_channels(s, "B").is_ok());
  EXPECT_TRUE(annotate_channel_accesses(s).is_ok());
  return s;
}

constexpr long long kComputeCycles = 3;

TEST(FixedDelayRegression, BusRateUsesTheActualDelay) {
  EXPECT_DOUBLE_EQ(estimate::bus_rate(8, ProtocolKind::kFixedDelay, 2), 4.0);
  // Pre-fix this returned 4.0 as well -- the delay parameter was silently
  // defaulted to 2 at every call site.
  EXPECT_DOUBLE_EQ(estimate::bus_rate(8, ProtocolKind::kFixedDelay, 4), 2.0);
  EXPECT_DOUBLE_EQ(estimate::bus_rate(8, ProtocolKind::kFixedDelay, 8), 1.0);
}

TEST(FixedDelayRegression, DelayFlipsWidthFeasibility) {
  System s = make_two_writer_system();
  estimate::PerformanceEstimator estimator(s);
  estimator.set_compute_cycles("P1", kComputeCycles);
  estimator.set_compute_cycles("P2", kComputeCycles);
  bus::BusGenerator generator(s, estimator);
  const BusGroup& bus = *s.find_bus("B");

  bus::BusGenOptions options;
  options.protocol = ProtocolKind::kFixedDelay;

  options.fixed_delay_cycles = 2;
  bus::WidthEvaluation fast = generator.evaluate_width(bus, 8, options);
  EXPECT_DOUBLE_EQ(fast.bus_rate, 4.0);
  EXPECT_TRUE(fast.feasible);
  Result<bus::BusGenResult> fast_gen = generator.generate(bus, options);
  ASSERT_TRUE(fast_gen.is_ok()) << fast_gen.status();
  EXPECT_TRUE(fast_gen->evaluation_for(8)->feasible);
  EXPECT_EQ(fast_gen->selected_width, 5);

  // The slower delay flips width 8 and moves the narrowest feasible
  // width (the generator's pick) from 5 to 6.
  options.fixed_delay_cycles = 4;
  bus::WidthEvaluation slow = generator.evaluate_width(bus, 8, options);
  EXPECT_DOUBLE_EQ(slow.bus_rate, 2.0);
  EXPECT_GT(slow.sum_average_rates, slow.bus_rate);
  EXPECT_FALSE(slow.feasible);
  Result<bus::BusGenResult> slow_gen = generator.generate(bus, options);
  ASSERT_TRUE(slow_gen.is_ok()) << slow_gen.status();
  EXPECT_FALSE(slow_gen->evaluation_for(8)->feasible);
  EXPECT_EQ(slow_gen->selected_width, 6);
}

TEST(FixedDelayRegression, ExplorerAgreesWithBusGenerator) {
  System s = make_two_writer_system();

  explore::ExploreOptions options;
  options.space.protocols = {ProtocolKind::kFixedDelay};
  options.space.min_width = 8;
  options.space.max_width = 8;
  options.compute_cycles_override = {{"P1", kComputeCycles},
                                     {"P2", kComputeCycles}};

  options.space.fixed_delay_cycles = 2;
  {
    explore::Explorer explorer(s, options);
    Result<explore::ExplorationResult> result = explorer.run();
    ASSERT_TRUE(result.is_ok()) << result.status();
    bool any_feasible = false;
    for (const explore::PointResult& point : result->points) {
      any_feasible |= point.feasible;
    }
    EXPECT_TRUE(any_feasible);
  }

  options.space.fixed_delay_cycles = 4;
  {
    explore::Explorer explorer(s, options);
    Result<explore::ExplorationResult> result = explorer.run();
    ASSERT_TRUE(result.is_ok()) << result.status();
    // The single enumerated point must be recognized as infeasible --
    // whether the Eq. 1 pruner skips it or full evaluation rejects it.
    for (const explore::PointResult& point : result->points) {
      EXPECT_FALSE(point.feasible)
          << "width " << point.point.width << " delay "
          << point.point.fixed_delay_cycles
          << " accepted by the explorer but rejected by the bus generator";
    }
  }
}

}  // namespace
}  // namespace ifsyn
