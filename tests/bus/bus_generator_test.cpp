// Bus generation (Sec. 3): width range, feasibility (Eq. 1), cost-based
// selection -- including the exact Fig. 8 design points -- and the
// infeasible-group splitting fallback.
#include "bus/bus_generator.hpp"

#include <gtest/gtest.h>

#include "partition/partitioner.hpp"
#include "spec/analysis.hpp"
#include "suite/flc.hpp"

namespace ifsyn::bus {
namespace {

using spec::ProtocolKind;
using suite::FlcCalibration;

struct FlcFixture {
  spec::System system;
  estimate::PerformanceEstimator estimator;
  BusGenerator generator;

  FlcFixture()
      : system(suite::make_flc_kernel()),
        estimator(system),
        generator(system, estimator) {
    EXPECT_TRUE(spec::annotate_channel_accesses(system).is_ok());
    estimator.set_compute_cycles("EVAL_R3",
                                 FlcCalibration::kEvalR3ComputeCycles);
    estimator.set_compute_cycles("CONV_R2",
                                 FlcCalibration::kConvR2ComputeCycles);
  }

  const spec::BusGroup& bus() { return *system.find_bus("B"); }
};

/// Two processes, each streaming 64 words into its own remote array with
/// no computation in between (compute cycles pinned to 0). Each channel
/// then saturates exactly half a full-handshake bus at every width, so
/// the pair exceeds Eq. 1 at every width in [1, largest message] while
/// each channel alone fits.
struct SaturatedFixture {
  spec::System system{"saturated"};
  estimate::PerformanceEstimator estimator{system};
  BusGenerator generator{system, estimator};

  SaturatedFixture() {
    using namespace spec;
    std::vector<partition::ModuleAssignment> assignment{
        partition::ModuleAssignment{"CHIP_P", {}, {}},
        partition::ModuleAssignment{"CHIP_M", {}, {}},
    };
    for (int p = 0; p < 2; ++p) {
      const std::string id = std::to_string(p);
      system.add_variable(
          Variable("M" + id, Type::array(Type::bits(16), 64)));
      Process proc;
      proc.name = "P" + id;
      proc.body = Block{for_stmt(
          "i", lit(0), lit(63),
          Block{assign(lv_idx("M" + id, var("i")), var("i"))})};
      system.add_process(std::move(proc));
      assignment[0].processes.push_back("P" + id);
      assignment[1].variables.push_back("M" + id);
      estimator.set_compute_cycles("P" + id, 0);
    }
    EXPECT_TRUE(partition::apply_partition(system, assignment).is_ok());
    EXPECT_TRUE(partition::group_all_channels(system, "SAT").is_ok());
    EXPECT_TRUE(spec::annotate_channel_accesses(system).is_ok());
  }

  const spec::BusGroup& bus() { return *system.find_bus("SAT"); }
};

TEST(BusGeneratorTest, WidthRangeIsOneToLargestMessage) {
  FlcFixture f;
  auto [lo, hi] = f.generator.width_range(f.bus());
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, FlcCalibration::kMessageBits);  // 23
}

TEST(BusGeneratorTest, EvaluateWidthComputesEq1Sides) {
  FlcFixture f;
  WidthEvaluation eval = f.generator.evaluate_width(f.bus(), 20, {});
  EXPECT_DOUBLE_EQ(eval.bus_rate, 10.0);  // Eq. 2
  ASSERT_EQ(eval.channel_rates.size(), 2u);
  EXPECT_GT(eval.sum_average_rates, 0.0);
  EXPECT_TRUE(eval.feasible);
}

TEST(BusGeneratorTest, NarrowWidthsAreInfeasible) {
  // At width 1 the bus moves 0.5 bits/clock but the two channels demand
  // ~0.9 -- Eq. 1 fails, exactly the "progressively delay the processes"
  // situation of Sec. 3.
  FlcFixture f;
  WidthEvaluation eval = f.generator.evaluate_width(f.bus(), 1, {});
  EXPECT_FALSE(eval.feasible);
  EXPECT_LT(eval.bus_rate, eval.sum_average_rates);
}

TEST(BusGeneratorTest, UnconstrainedPicksNarrowestFeasible) {
  FlcFixture f;
  Result<BusGenResult> result = f.generator.generate(f.bus(), {});
  ASSERT_TRUE(result.is_ok()) << result.status();
  // With no constraints every feasible width costs 0; the tiebreak keeps
  // interconnect minimal.
  const BusGenResult& r = *result;
  EXPECT_GT(r.selected_width, 1);
  for (const WidthEvaluation& eval : r.evaluations) {
    if (eval.width < r.selected_width) {
      EXPECT_FALSE(eval.feasible);
    }
  }
  EXPECT_EQ(r.total_channel_bits, 46);
}

// ---- The three Fig. 8 design points ----

TEST(BusGeneratorTest, Fig8DesignA) {
  FlcFixture f;
  BusGenOptions options;
  options.constraints = {min_peak_rate("ch2", 10, 10)};
  Result<BusGenResult> result = f.generator.generate(f.bus(), options);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result->selected_width, 20);
  EXPECT_DOUBLE_EQ(result->selected_bus_rate, 10.0);
  EXPECT_NEAR(result->interconnect_reduction, 1.0 - 20.0 / 46.0, 1e-9);
}

TEST(BusGeneratorTest, Fig8DesignB) {
  FlcFixture f;
  BusGenOptions options;
  options.constraints = {
      min_peak_rate("ch2", 10, 2),
      min_bus_width(14, 1),
      max_bus_width(17, 1),
  };
  Result<BusGenResult> result = f.generator.generate(f.bus(), options);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result->selected_width, 18);
  EXPECT_DOUBLE_EQ(result->selected_bus_rate, 9.0);
}

TEST(BusGeneratorTest, Fig8DesignC) {
  FlcFixture f;
  BusGenOptions options;
  options.constraints = {
      min_peak_rate("ch2", 10, 1),
      min_bus_width(16, 5),
      max_bus_width(16, 5),
  };
  Result<BusGenResult> result = f.generator.generate(f.bus(), options);
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result->selected_width, 16);
  EXPECT_DOUBLE_EQ(result->selected_bus_rate, 8.0);
}

TEST(BusGeneratorTest, EvaluationsCoverWholeRange) {
  FlcFixture f;
  Result<BusGenResult> result = f.generator.generate(f.bus(), {});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->evaluations.size(), 23u);
  EXPECT_NE(result->evaluation_for(20), nullptr);
  EXPECT_EQ(result->evaluation_for(99), nullptr);
}

TEST(BusGeneratorTest, SelectedWidthIsMinCostAmongFeasible) {
  // Property: no feasible evaluation has strictly lower cost than the
  // winner; equal-cost ties go to the narrower width.
  FlcFixture f;
  BusGenOptions options;
  options.constraints = {min_peak_rate("ch2", 10, 2), max_bus_width(17, 1),
                         min_bus_width(14, 1)};
  Result<BusGenResult> result = f.generator.generate(f.bus(), options);
  ASSERT_TRUE(result.is_ok());
  const double winner_cost = result->selected_cost;
  for (const WidthEvaluation& eval : result->evaluations) {
    if (!eval.feasible) continue;
    EXPECT_GE(eval.cost, winner_cost) << "width " << eval.width;
    if (eval.cost == winner_cost) {
      EXPECT_GE(eval.width, result->selected_width);
    }
  }
}

TEST(BusGeneratorTest, MissingAccessCountsIsFailedPrecondition) {
  spec::System system = suite::make_flc_kernel();  // not annotated
  for (const auto& ch : system.channels()) ch->accesses = 0;
  estimate::PerformanceEstimator estimator(system);
  BusGenerator generator(system, estimator);
  Result<BusGenResult> result = generator.generate(*system.find_bus("B"), {});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BusGeneratorTest, SaturatedGroupIsInfeasible) {
  SaturatedFixture f;
  Result<BusGenResult> result = f.generator.generate(f.bus(), {});
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(BusGeneratorTest, SplitGroupKeepsFeasibleGroupTogether) {
  // Both FLC channels fit on one bus at some width in the full range, so
  // the greedy packer keeps them together.
  FlcFixture f;
  auto split = f.generator.split_group(f.bus(), BusGenOptions{});
  ASSERT_TRUE(split.is_ok()) << split.status();
  ASSERT_EQ(split->size(), 1u);
  EXPECT_EQ((*split)[0].size(), 2u);
}

TEST(BusGeneratorTest, SplitGroupSeparatesSaturatingChannels) {
  // Together the two channels violate Eq. 1 at every width, but each
  // alone fits -- so the splitter must produce two buses.
  SaturatedFixture f;
  const auto [lo, hi] = f.generator.width_range(f.bus());
  for (int w = lo; w <= hi; ++w) {
    EXPECT_FALSE(f.generator.evaluate_width(f.bus(), w, {}).feasible) << w;
  }
  auto split = f.generator.split_group(f.bus(), BusGenOptions{});
  ASSERT_TRUE(split.is_ok()) << split.status();
  ASSERT_EQ(split->size(), 2u);
  EXPECT_EQ((*split)[0].size(), 1u);
  EXPECT_EQ((*split)[1].size(), 1u);
}

}  // namespace
}  // namespace ifsyn::bus
