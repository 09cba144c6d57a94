// End-to-end interface synthesis: bus generation + protocol generation +
// reporting, the Fig. 1 flow as one call.
#include "core/interface_synthesizer.hpp"

#include <gtest/gtest.h>

#include "core/equivalence.hpp"
#include "core/report.hpp"
#include "partition/partitioner.hpp"
#include "suite/fig3_example.hpp"
#include "suite/flc.hpp"

namespace ifsyn::core {
namespace {

using namespace spec;
using suite::FlcCalibration;

SynthesisOptions flc_options() {
  SynthesisOptions options;
  options.compute_cycles_override = {
      {"EVAL_R3", FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", FlcCalibration::kConvR2ComputeCycles},
  };
  return options;
}

TEST(SynthesizerTest, FlcKernelUnconstrainedFlow) {
  System system = suite::make_flc_kernel();
  InterfaceSynthesizer synth(flc_options());
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok()) << report.status();

  ASSERT_EQ(report->buses.size(), 1u);
  const BusReport& bus = report->buses[0];
  EXPECT_EQ(bus.bus, "B");
  EXPECT_GT(bus.generation.selected_width, 0);
  EXPECT_EQ(bus.generation.total_channel_bits, 46);
  EXPECT_EQ(bus.control_lines, 2);
  EXPECT_EQ(bus.id_bits, 1);  // two channels
  EXPECT_EQ(bus.total_wires,
            bus.generation.selected_width + 3);
  EXPECT_GT(report->interconnect_reduction, 0.0);

  // The system is refined: procedures + servers exist, widths recorded.
  EXPECT_TRUE(system.find_bus("B")->generated());
  EXPECT_NE(system.find_procedure("Sendch1"), nullptr);
  EXPECT_NE(system.find_procedure("Receivech2"), nullptr);
  EXPECT_NE(system.find_process("trru0proc"), nullptr);
  EXPECT_NE(system.find_process("trru2proc"), nullptr);
}

TEST(SynthesizerTest, Fig8ConstraintsSelectWidth20) {
  System system = suite::make_flc_kernel();
  SynthesisOptions options = flc_options();
  options.constraints["B"] = {bus::min_peak_rate("ch2", 10, 10)};
  InterfaceSynthesizer synth(options);
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->buses[0].generation.selected_width, 20);
  EXPECT_EQ(system.find_bus("B")->width, 20);
}

TEST(SynthesizerTest, RefinedFlcKernelMatchesOriginalBehavior) {
  System original = suite::make_flc_kernel();
  System refined = original.clone("flc_refined");
  SynthesisOptions options = flc_options();
  options.arbitrate = true;  // EVAL_R3 and CONV_R2 overlap on the bus
  InterfaceSynthesizer synth(options);
  ASSERT_TRUE(synth.run(refined).is_ok());

  Result<EquivalenceReport> eq = check_equivalence(original, refined);
  ASSERT_TRUE(eq.is_ok()) << eq.status();
  EXPECT_TRUE(eq->equivalent)
      << (eq->mismatches.empty() ? "" : eq->mismatches[0]);
}

TEST(SynthesizerTest, PinnedWidthIsRespected) {
  System system = suite::make_fig3_system();  // width pinned to 8
  InterfaceSynthesizer synth;
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(system.find_bus("B")->width, 8);
  // Pinned groups produce no generation entry (no search ran).
  EXPECT_TRUE(report->buses.empty());
}

TEST(SynthesizerTest, PinnedWidthStillCountsDataPins) {
  // Fig. 3: four cross-module channels (P writes X, P reads X, P and Q
  // write MEM) merged onto the designer's 8-bit bus. No generation ran,
  // so the pin counts must come from the bus and its channels.
  System system = suite::make_fig3_system();
  SynthesisOptions options;
  options.arbitrate = true;
  InterfaceSynthesizer synth(options);
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(system.channels().size(), 4u);

  EXPECT_EQ(report->merged_data_pins, 8);
  EXPECT_EQ(report->dedicated_data_pins, 16 + 16 + 22 + 22);
  EXPECT_NEAR(report->interconnect_reduction, 1.0 - 8.0 / 76.0, 1e-9);

  ReportInputs inputs;
  inputs.refined = &system;
  inputs.synthesis = &report.value();
  const std::string markdown = render_markdown_report(inputs);
  EXPECT_NE(markdown.find("- data pins: 8 merged vs 76 dedicated "
                          "(89.5 % reduction)"),
            std::string::npos)
      << markdown;
}

TEST(SynthesizerTest, FeasibleGroupDoesNotSplit) {
  System system = suite::make_flc_kernel();
  InterfaceSynthesizer synth(flc_options());
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->split_buses.empty());
}

/// Four processes, each streaming 64 words into its own remote array with
/// no computation in between (compute cycles pinned to 0). Each channel
/// then saturates exactly half a full-handshake bus at every width, so
/// any TWO channels exceed Eq. 1 everywhere — w*ceil(b/w) < 2b for all
/// w <= b — and the group can only be implemented as dedicated buses.
System make_saturating_system() {
  System system("saturated");
  std::vector<partition::ModuleAssignment> assignment{
      partition::ModuleAssignment{"CHIP_P", {}, {}},
      partition::ModuleAssignment{"CHIP_M", {}, {}},
  };
  for (int p = 0; p < 4; ++p) {
    const std::string id = std::to_string(p);
    system.add_variable(
        Variable("M" + id, Type::array(Type::bits(16), 64)));
    Process proc;
    proc.name = "P" + id;
    proc.body = Block{for_stmt(
        "i", lit(0), lit(63),
        Block{assign(lv_idx("M" + id, var("i")),
                     add(var("i"), lit(p)))})};
    system.add_process(std::move(proc));
    assignment[0].processes.push_back("P" + id);
    assignment[1].variables.push_back("M" + id);
  }
  Status status = partition::apply_partition(system, assignment);
  EXPECT_TRUE(status.is_ok()) << status;
  status = partition::group_all_channels(system, "SAT");
  EXPECT_TRUE(status.is_ok()) << status;
  return system;
}

TEST(SynthesizerTest, InfeasibleGroupSplitsIntoReportedBuses) {
  System original = make_saturating_system();
  System refined = original.clone("saturated_refined");

  SynthesisOptions options;
  options.arbitrate = true;
  for (int p = 0; p < 4; ++p) {
    options.compute_cycles_override["P" + std::to_string(p)] = 0;
  }
  InterfaceSynthesizer synth(options);
  Result<SynthesisReport> report = synth.run(refined);
  ASSERT_TRUE(report.is_ok()) << report.status();

  // All four channels end up on dedicated buses: the original SAT plus
  // three split-off ones, all reported.
  ASSERT_EQ(report->split_buses.size(), 3u);
  ASSERT_EQ(report->buses.size(), 4u);
  for (const std::string& name : report->split_buses) {
    const BusGroup* bus = refined.find_bus(name);
    ASSERT_NE(bus, nullptr) << name;
    EXPECT_EQ(bus->channel_names.size(), 1u);
    EXPECT_GT(bus->width, 0);
  }
  EXPECT_EQ(refined.find_bus("SAT")->channel_names.size(), 1u);

  // The refinement must still behave like the original spec.
  Result<EquivalenceReport> eq = check_equivalence(original, refined);
  ASSERT_TRUE(eq.is_ok()) << eq.status();
  EXPECT_TRUE(eq->equivalent)
      << (eq->mismatches.empty() ? "" : eq->mismatches[0]);
}

TEST(SynthesizerTest, HardwiredBaselineCountsDedicatedPins) {
  System system = suite::make_flc_kernel();
  SynthesisOptions options = flc_options();
  options.protocol = ProtocolKind::kHardwiredPort;
  InterfaceSynthesizer synth(options);
  Result<SynthesisReport> report = synth.run(system);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(report->buses.size(), 1u);
  // ch1 write: 23 message-wide lines; ch2 read: max(7,16)=16 lines.
  EXPECT_EQ(system.find_bus("B")->width, 23 + 16);
  EXPECT_NE(system.find_signal("B_ch1"), nullptr);
  EXPECT_NE(system.find_signal("B_ch2"), nullptr);
}

TEST(SynthesizerTest, RequiresBusGroups) {
  System system("empty");
  InterfaceSynthesizer synth;
  Result<SynthesisReport> report = synth.run(system);
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ifsyn::core
