// Markdown synthesis report rendering.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include "sim/interpreter.hpp"
#include "suite/flc.hpp"

namespace ifsyn::core {
namespace {

struct Fixture {
  spec::System refined;
  SynthesisReport synthesis;
  EquivalenceReport equivalence;
  check::ConformanceReport mined;
  std::uint64_t end_time = 0;

  Fixture() : refined(suite::make_flc_kernel()) {
    spec::System original = refined.clone("original");
    SynthesisOptions options;
    options.arbitrate = true;
    options.compute_cycles_override = {
        {"EVAL_R3", suite::FlcCalibration::kEvalR3ComputeCycles},
        {"CONV_R2", suite::FlcCalibration::kConvR2ComputeCycles},
    };
    InterfaceSynthesizer synth(options);
    Result<SynthesisReport> report = synth.run(refined);
    EXPECT_TRUE(report.is_ok()) << report.status();
    synthesis = std::move(report).value();

    Result<EquivalenceReport> eq =
        check_equivalence(original, refined, 10'000'000);
    EXPECT_TRUE(eq.is_ok());
    equivalence = std::move(eq).value();

    sim::SimulationRun run = sim::simulate(refined, 10'000'000, true);
    EXPECT_TRUE(run.result.status.is_ok());
    mined = check::mine_and_diff(refined, run.kernel->trace());
    EXPECT_TRUE(mined.clean()) << mined.to_string();
    end_time = run.result.end_time;
  }
};

TEST(ReportTest, FullReportHasAllSections) {
  Fixture f;
  ReportInputs inputs;
  inputs.refined = &f.refined;
  inputs.synthesis = &f.synthesis;
  inputs.equivalence = &f.equivalence;

  const std::string md = render_markdown_report(inputs);
  EXPECT_NE(md.find("# Interface synthesis report: flc_kernel"),
            std::string::npos);
  EXPECT_NE(md.find("## Channels"), std::string::npos);
  EXPECT_NE(md.find("| ch1 | EVAL_R3 | write | trru0 | 23 (16+7) | 128 |"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("## Buses"), std::string::npos);
  EXPECT_NE(md.find("### Width exploration: B"), std::string::npos);
  EXPECT_NE(md.find("**(selected)**"), std::string::npos);
  EXPECT_NE(md.find("## Co-simulation"), std::string::npos);
  EXPECT_NE(md.find("functional equivalence: **PASS**"), std::string::npos);
  // Measured traffic is a separate section the CLI appends.
  EXPECT_EQ(md.find("## Measured bus traffic"), std::string::npos);
  const std::string traffic = render_traffic_markdown(f.mined, f.end_time);
  EXPECT_EQ(traffic.rfind("## Measured bus traffic\n\n", 0), 0u) << traffic;
  EXPECT_NE(traffic.find("| channel | transactions | words | first | last |"),
            std::string::npos)
      << traffic;
  EXPECT_NE(traffic.find("| ch1 | 128 |"), std::string::npos) << traffic;
}

TEST(ReportTest, TrafficNamesWhyABusWasNotMeasured) {
  check::ConformanceReport mined;
  mined.traffic.push_back(check::BusTraffic{"B", 2, 1, {{"CH0", 0, {}}}});
  mined.traffic.push_back(check::BusTraffic{"C", 2, 1, {{"CH1", 1, {4, 6}}}});
  mined.skipped.push_back(check::SkippedLane{"B", "why not"});
  const std::string traffic = render_traffic_markdown(mined, 8);
  EXPECT_EQ(traffic,
            "## Measured bus traffic\n\n"
            "### B — not measured: mining skipped: why not\n\n"
            "### C — 2 words, 50.0 % utilization\n\n"
            "| channel | transactions | words | first | last |\n"
            "|---|---|---|---|---|\n"
            "| CH1 | 1 | 2 | 4 | 6 |\n\n");

  mined.skipped.clear();
  check::Disagreement cut;
  cut.bus = "C";
  cut.channel = "CH1";
  cut.time = 6;
  cut.signal = "C.DONE";
  cut.detail = "the trace ends";
  mined.disagreements.push_back(cut);
  EXPECT_NE(render_traffic_markdown(mined, 8)
                .find("### C — not measured: conform.missing_event C/CH1 "
                      "C.DONE@6.0: the trace ends\n\n"),
            std::string::npos);
}

TEST(ReportTest, OptionalSectionsOmitted) {
  Fixture f;
  ReportInputs inputs;
  inputs.refined = &f.refined;
  inputs.synthesis = &f.synthesis;
  const std::string md = render_markdown_report(inputs);
  EXPECT_EQ(md.find("## Co-simulation"), std::string::npos);
  EXPECT_EQ(md.find("## Measured bus traffic"), std::string::npos);
  EXPECT_NE(md.find("## Channels"), std::string::npos);
}

TEST(ReportTest, ZeroChannelSystemRendersWithoutNan) {
  // A system with no cross-module channels has no dedicated-pin baseline:
  // the reduction ratio must degrade to an annotated 0, never NaN.
  spec::System lonely("lonely");
  SynthesisReport empty;
  ReportInputs inputs;
  inputs.refined = &lonely;
  inputs.synthesis = &empty;

  const std::string md = render_markdown_report(inputs);
  EXPECT_EQ(md.find("nan"), std::string::npos) << md;
  EXPECT_EQ(md.find("-nan"), std::string::npos) << md;
  EXPECT_NE(md.find("reduction 0.0 % — no cross-module channels"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("_No cross-module channels._"), std::string::npos);
}

TEST(ReportTest, RequiredInputsAsserted) {
  ReportInputs inputs;  // all null
  EXPECT_THROW(render_markdown_report(inputs), InternalError);
}

}  // namespace
}  // namespace ifsyn::core
