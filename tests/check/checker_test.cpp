// Static protocol checker (src/check): clean verdicts on everything the
// generator produces, and a guaranteed diagnostic for each seeded
// mutation in the bug class the checker exists to catch.
#include "check/checker.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "check/protocol_fsm.hpp"
#include "core/interface_synthesizer.hpp"
#include "obs/metrics.hpp"
#include "protocol/procedure_synthesis.hpp"
#include "protocol/protocol_generator.hpp"
#include "suite/answering_machine.hpp"
#include "suite/ethernet_coprocessor.hpp"
#include "suite/fig3_example.hpp"
#include "suite/flc.hpp"

namespace ifsyn::check {
namespace {

using namespace spec;
using suite::FlcCalibration;

bool has_code(const CheckReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

/// Fig. 3 system refined by protocol generation alone (width is pinned
/// at 8 by the suite builder, so bus generation is not needed).
System refined_fig3(ProtocolKind protocol = ProtocolKind::kFullHandshake,
                    int fixed_delay_cycles = 2) {
  System system = suite::make_fig3_system();
  protocol::ProtocolGenOptions options;
  options.protocol = protocol;
  options.fixed_delay_cycles = fixed_delay_cycles;
  options.arbitrate = true;  // P and Q are concurrent masters
  protocol::ProtocolGenerator generator(options);
  Status status = generator.generate_all(system);
  EXPECT_TRUE(status.is_ok()) << status;
  return system;
}

// ---- clean verdicts ---------------------------------------------------

TEST(CheckerTest, Fig3IsCleanUnderEveryProtocol) {
  // Exact work per protocol: states of the interleaved composition for
  // the handshakes, steps of the timed run for the strobe protocols.
  const struct {
    ProtocolKind protocol;
    std::uint64_t states_explored;
  } cases[] = {
      {ProtocolKind::kFullHandshake, 204},
      {ProtocolKind::kHalfHandshake, 90},
      {ProtocolKind::kFixedDelay, 90},
      {ProtocolKind::kHardwiredPort, 98},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(protocol_kind_name(c.protocol));
    System system = refined_fig3(c.protocol, 3);
    obs::MetricsRegistry registry;
    obs::ObsContext obs;
    obs.metrics = &registry;
    const CheckReport report = run_checks(system, {}, obs);
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(registry.counter("check.channels_checked").value(), 4u);
    EXPECT_EQ(registry.counter("check.fsm_states_explored").value(),
              c.states_explored);
  }
}

TEST(CheckerTest, SynthesizedSuiteSystemsAreClean) {
  struct Case {
    const char* name;
    System (*build)();
    bool arbitrate;
  };
  const Case cases[] = {
      {"flc_kernel", suite::make_flc_kernel, false},
      {"answering_machine", suite::make_answering_machine, true},
      {"ethernet_coprocessor", suite::make_ethernet_coprocessor, true},
  };
  for (const Case& c : cases) {
    System system = c.build();
    core::SynthesisOptions options;
    options.arbitrate = c.arbitrate;
    if (std::string(c.name) == "flc_kernel") {
      options.compute_cycles_override = {
          {"EVAL_R3", FlcCalibration::kEvalR3ComputeCycles},
          {"CONV_R2", FlcCalibration::kConvR2ComputeCycles},
      };
    }
    // Snapshot compute cycles before synthesis rewrites the process
    // bodies the default compute model reads (see snapshot_compute_cycles).
    const std::map<std::string, long long> compute_snapshot =
        snapshot_compute_cycles(system, options.compute_cycles_override);

    // The synthesizer's own P6 gate runs the checker; success here
    // already means "clean". Re-run explicitly for the report assert.
    core::InterfaceSynthesizer synth(options);
    Result<core::SynthesisReport> report = synth.run(system);
    ASSERT_TRUE(report.is_ok()) << c.name << ": " << report.status();

    CheckOptions check_options;
    check_options.compute_cycles_override = compute_snapshot;
    const CheckReport check_report = run_checks(system, check_options);
    EXPECT_TRUE(check_report.clean())
        << c.name << ":\n" << check_report.to_string();
  }
}

// ---- seeded mutation 1: duplicate channel ID --------------------------

TEST(CheckerTest, DuplicateChannelIdIsFlagged) {
  System system = refined_fig3();
  ASSERT_TRUE(run_checks(system).clean());
  system.find_channel("CH1")->id = system.find_channel("CH0")->id;
  const CheckReport report = run_checks(system);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(has_code(report, "structural.duplicate_id"))
      << report.to_string();
}

// ---- seeded mutation 2: fixed-delay default drift ---------------------

TEST(CheckerTest, FixedDelayDefaultDriftIsFlagged) {
  System system = refined_fig3(ProtocolKind::kFixedDelay,
                               /*fixed_delay_cycles=*/5);
  ASSERT_TRUE(run_checks(system).clean());
  // Reintroduce the old bug's effect: the bus record claims the default
  // delay while the generated procedures hold each word for 5 cycles.
  system.find_bus("B")->fixed_delay_cycles = 2;
  const CheckReport report = run_checks(system);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(has_code(report, "fsm.hold_cycles")) << report.to_string();
}

// ---- seeded mutation 3: dropped DONE wait -----------------------------

bool mentions_done(const Expr& expr) {
  if (const auto* s = expr.as<SignalRef>()) return s->field == "DONE";
  if (const auto* u = expr.as<UnaryExpr>()) return mentions_done(*u->operand);
  if (const auto* b = expr.as<BinaryExpr>()) {
    return mentions_done(*b->lhs) || mentions_done(*b->rhs);
  }
  return false;
}

Block strip_done_waits(const Block& block, int* removed) {
  Block out;
  for (const StmtPtr& stmt : block) {
    if (const auto* wu = stmt->as<WaitUntil>()) {
      if (mentions_done(*wu->cond)) {
        ++*removed;
        continue;
      }
    }
    if (const auto* fs = stmt->as<ForStmt>()) {
      out.push_back(
          for_stmt(fs->var, fs->from, fs->to,
                   strip_done_waits(fs->body, removed)));
      continue;
    }
    out.push_back(stmt);
  }
  return out;
}

TEST(CheckerTest, DroppedDoneWaitDeadlocks) {
  System system = refined_fig3();
  ASSERT_TRUE(run_checks(system).clean());

  const Channel* ch0 = system.find_channel("CH0");
  ASSERT_NE(ch0, nullptr);
  // Tests may mutate generated procedures to seed defects; the bodies are
  // not semantically const, System just exposes no mutating lookup.
  auto* send = const_cast<Procedure*>(
      system.find_procedure(protocol::requester_proc_name(*ch0)));
  ASSERT_NE(send, nullptr);
  int removed = 0;
  send->body = strip_done_waits(send->body, &removed);
  ASSERT_GT(removed, 0) << "mutation found no DONE wait to drop";

  const CheckReport report = run_checks(system);
  EXPECT_GT(report.errors(), 0);
  EXPECT_TRUE(has_code(report, "fsm.deadlock")) << report.to_string();
}

// ---- rate re-check ----------------------------------------------------

// A pinned width below the Eq. 1 floor is a caller decision (width
// sweeps and the paper's pinned illustrative examples depend on it), so
// the rate pass must stay silent on it.
TEST(CheckerTest, PinnedWidthIsExemptFromRateCheck) {
  System system = suite::make_flc_kernel();
  system.find_bus("B")->width = 1;  // far below the Eq. 1 floor
  core::SynthesisOptions options;
  options.compute_cycles_override = {
      {"EVAL_R3", FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", FlcCalibration::kConvR2ComputeCycles},
  };
  const std::map<std::string, long long> compute_snapshot =
      snapshot_compute_cycles(system, options.compute_cycles_override);
  core::InterfaceSynthesizer synth(options);  // gate on: must stay clean
  ASSERT_TRUE(synth.run(system).is_ok());

  CheckOptions check_options;
  check_options.compute_cycles_override = compute_snapshot;
  const CheckReport report = run_checks(system, check_options);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// A *generator-selected* width that violates Eq. 1 is exactly the
// protocol-blind drift this subsystem exists to catch. The generator
// cannot be made to select one through its public API (that is the
// point), so shrink the width it chose after the fact. The structural
// pass then reports the mismatched signals as errors; the rate pass must
// still report the Eq. 1 violation, as a warning.
TEST(CheckerTest, GeneratorSelectedInfeasibleWidthWarns) {
  System system = suite::make_flc_kernel();
  core::SynthesisOptions options;
  options.compute_cycles_override = {
      {"EVAL_R3", FlcCalibration::kEvalR3ComputeCycles},
      {"CONV_R2", FlcCalibration::kConvR2ComputeCycles},
  };
  const std::map<std::string, long long> compute_snapshot =
      snapshot_compute_cycles(system, options.compute_cycles_override);
  core::InterfaceSynthesizer synth(options);
  ASSERT_TRUE(synth.run(system).is_ok());

  BusGroup* bus = system.find_bus("B");
  ASSERT_TRUE(bus->width_from_generator);
  bus->width = 1;

  CheckOptions check_options;
  check_options.compute_cycles_override = compute_snapshot;
  const CheckReport report = run_checks(system, check_options);
  const auto infeasible = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == "rate.infeasible"; });
  ASSERT_NE(infeasible, report.diagnostics.end()) << report.to_string();
  EXPECT_EQ(infeasible->severity, Severity::kWarning);
  EXPECT_EQ(infeasible->subject, "B");
}

// ---- metrics ----------------------------------------------------------

TEST(CheckerTest, ExportsCheckMetrics) {
  System system = refined_fig3();
  obs::MetricsRegistry registry;
  obs::ObsContext obs;
  obs.metrics = &registry;
  const CheckReport report = run_checks(system, {}, obs);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(registry.counter("check.buses_checked").value(), 1u);
  EXPECT_EQ(registry.counter("check.channels_checked").value(), 4u);
  EXPECT_EQ(registry.counter("check.fsm_compositions").value(), 4u);
  EXPECT_EQ(registry.counter("check.fsm_states_explored").value(), 204u);
  EXPECT_EQ(registry.counter("check.errors").value(), 0u);
}

}  // namespace
}  // namespace ifsyn::check
