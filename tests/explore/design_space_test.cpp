#include "explore/design_space.hpp"

#include <gtest/gtest.h>

#include "bus/bus_generator.hpp"
#include "spec/analysis.hpp"
#include "suite/flc.hpp"

namespace ifsyn::explore {
namespace {

using suite::FlcCalibration;

struct FlcFixture {
  spec::System system = suite::make_flc_kernel();
  std::unique_ptr<estimate::PerformanceEstimator> estimator;

  FlcFixture() {
    EXPECT_TRUE(spec::annotate_channel_accesses(system).is_ok());
    estimator = std::make_unique<estimate::PerformanceEstimator>(system);
    estimator->set_compute_cycles("EVAL_R3",
                                  FlcCalibration::kEvalR3ComputeCycles);
    estimator->set_compute_cycles("CONV_R2",
                                  FlcCalibration::kConvR2ComputeCycles);
  }
};

TEST(DesignSpaceTest, EnumeratesGroupingMajorThenProtocolThenWidth) {
  FlcFixture flc;
  DesignSpaceOptions options;
  options.protocols = {spec::ProtocolKind::kFullHandshake,
                       spec::ProtocolKind::kHalfHandshake};
  DesignSpace space(flc.system, *flc.estimator, options);
  ASSERT_TRUE(space.validate().is_ok());

  // FLC kernel: largest message 23 bits => widths 1..23, one grouping.
  EXPECT_EQ(space.width_range(), std::make_pair(1, 23));
  const std::vector<DesignPoint> points = space.enumerate();
  ASSERT_EQ(points.size(), 2u * 23u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);  // index == enumeration order, always
  }
  EXPECT_EQ(points[0].protocol, spec::ProtocolKind::kFullHandshake);
  EXPECT_EQ(points[0].width, 1);
  EXPECT_EQ(points[22].width, 23);
  EXPECT_EQ(points[23].protocol, spec::ProtocolKind::kHalfHandshake);
  EXPECT_EQ(points[23].width, 1);
}

TEST(DesignSpaceTest, GroupingPlansCoverAlternativesWithoutDuplicates) {
  FlcFixture flc;
  // as-grouped = {ch1, ch2} on one bus; single-bus duplicates it and is
  // dropped; per-accessor and per-channel both split into {ch1}, {ch2}
  // and collapse into one plan.
  const std::vector<GroupingPlan> plans =
      make_grouping_plans(flc.system, /*alternatives=*/true);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].name, "as-grouped");
  EXPECT_EQ(plans[0].groups.size(), 1u);
  EXPECT_EQ(plans[1].name, "per-accessor");
  EXPECT_EQ(plans[1].groups.size(), 2u);

  const std::vector<GroupingPlan> just_grouped =
      make_grouping_plans(flc.system, /*alternatives=*/false);
  ASSERT_EQ(just_grouped.size(), 1u);
  EXPECT_EQ(just_grouped[0].name, "as-grouped");
  EXPECT_EQ(just_grouped[0].bus_names[0], "B");
}

TEST(DesignSpaceTest, GroupSignatureIsOrderInsensitive) {
  EXPECT_EQ(GroupingPlan::group_signature({"ch2", "ch1"}),
            GroupingPlan::group_signature({"ch1", "ch2"}));
  EXPECT_NE(GroupingPlan::group_signature({"ch1"}),
            GroupingPlan::group_signature({"ch1", "ch2"}));
}

TEST(DesignSpaceTest, RejectsHardwiredAndEmptyProtocolLists) {
  FlcFixture flc;
  DesignSpaceOptions hardwired;
  hardwired.protocols = {spec::ProtocolKind::kHardwiredPort};
  EXPECT_EQ(DesignSpace(flc.system, *flc.estimator, hardwired)
                .validate()
                .code(),
            StatusCode::kInvalidArgument);

  DesignSpaceOptions empty;
  empty.protocols.clear();
  EXPECT_EQ(DesignSpace(flc.system, *flc.estimator, empty).validate().code(),
            StatusCode::kInvalidArgument);
}

TEST(DesignSpaceTest, Eq1PrunerOnlySkipsTrulyInfeasibleWidths) {
  FlcFixture flc;
  DesignSpaceOptions options;
  DesignSpace space(flc.system, *flc.estimator, options);
  ASSERT_TRUE(space.validate().is_ok());

  // Soundness: every pruned width must also fail the full Eq. 1 check.
  bus::BusGenerator generator(flc.system, *flc.estimator);
  const spec::BusGroup* group = flc.system.find_bus("B");
  ASSERT_NE(group, nullptr);
  int pruned = 0;
  for (const DesignPoint& point : space.enumerate()) {
    if (!eq1_prunes(space, point)) continue;
    ++pruned;
    bus::BusGenOptions gen_options;
    gen_options.protocol = point.protocol;
    EXPECT_FALSE(
        generator.evaluate_width(*group, point.width, gen_options).feasible)
        << "pruner skipped feasible width " << point.width;
  }
  EXPECT_GT(pruned, 0);  // the bound does fire on narrow widths
}

}  // namespace
}  // namespace ifsyn::explore
