// Trace-mined conformance (src/check/trace_miner): clean verdicts on
// every refined system the generator produces -- under every execution
// engine -- and a guaranteed, correctly-classified disagreement for each
// seeded waveform mutation in the bug class the miner exists to catch.
// Parallels tests/check/checker_test.cpp's mutation negatives: there the
// *procedures* are mutated and the static checker must object; here the
// mutant actually runs and the mined trace is diffed against the static
// automaton of the unmutated system.
#include "check/trace_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/interface_synthesizer.hpp"
#include "estimate/rate_model.hpp"
#include "obs/metrics.hpp"
#include "protocol/procedure_synthesis.hpp"
#include "protocol/protocol_generator.hpp"
#include "sim/interpreter.hpp"
#include "spec/parser.hpp"
#include "suite/answering_machine.hpp"
#include "suite/ethernet_coprocessor.hpp"
#include "suite/fig3_example.hpp"
#include "suite/flc.hpp"

namespace ifsyn::check {
namespace {

using namespace spec;
using suite::FlcCalibration;

/// Fig. 3 refined by protocol generation alone (width pinned at 8 by the
/// suite builder). Deterministic: two calls yield identical systems, so
/// mutation tests build it twice -- one copy to mutate and simulate, one
/// to provide the unmutated static automaton to diff against.
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

ConformanceReport simulate_and_mine(const System& reference,
                                    const System& to_run,
                                    sim::Engine engine = sim::Engine::kVm) {
  sim::SimulationRun run =
      sim::simulate(to_run, /*max_time=*/1'000'000, /*trace=*/true, {},
                    engine);
  EXPECT_TRUE(run.result.status.is_ok()) << run.result.status;
  return mine_and_diff(reference, run.kernel->trace());
}

// ---- clean verdicts ---------------------------------------------------

TEST(TraceMinerTest, Fig3IsCleanUnderEveryProtocol) {
  const struct {
    ProtocolKind protocol;
    long long edges_checked;
  } cases[] = {
      {ProtocolKind::kFullHandshake, 58},
      {ProtocolKind::kHalfHandshake, 28},
      {ProtocolKind::kFixedDelay, 28},
      {ProtocolKind::kHardwiredPort, 24},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(protocol_kind_name(c.protocol));
    System system = refined_fig3(c.protocol, 3);
    const ConformanceReport report = simulate_and_mine(system, system);
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_TRUE(report.skipped.empty()) << report.to_string();
    // Fig. 3 performs four accesses: P writes X, reads X, writes MEM;
    // Q writes MEM. Every one must be mined, whatever the protocol.
    EXPECT_EQ(report.transactions_mined, 4);
    EXPECT_EQ(report.edges_checked, c.edges_checked);
  }
}

// The matched transactions are the measured traffic: one transaction per
// channel, moving exactly the words the slicing arithmetic the static
// checker uses predicts at that channel's wire width.
TEST(TraceMinerTest, Fig3TrafficIsReadOffTheMatchedTransactions) {
  for (ProtocolKind protocol :
       {ProtocolKind::kFullHandshake, ProtocolKind::kHalfHandshake,
        ProtocolKind::kFixedDelay, ProtocolKind::kHardwiredPort}) {
    SCOPED_TRACE(protocol_kind_name(protocol));
    System system = refined_fig3(protocol, 3);
    const ConformanceReport report = simulate_and_mine(system, system);
    ASSERT_EQ(report.traffic.size(), 1u);
    const BusTraffic& bus = report.traffic[0];
    const BusGroup& group = *system.find_bus("B");
    EXPECT_EQ(bus.bus, "B");
    // Hardwired ports give each channel its own signal.
    EXPECT_EQ(bus.lanes, protocol == ProtocolKind::kHardwiredPort ? 4 : 1);
    ASSERT_EQ(bus.channels.size(), 4u);
    for (const ChannelTraffic& ct : bus.channels) {
      SCOPED_TRACE(ct.channel);
      const Channel& ch = *system.find_channel(ct.channel);
      const int width =
          protocol::ProtocolGenerator::wire_context(group, ch).width;
      const estimate::TransactionWords words =
          estimate::transaction_words(ch, width);
      EXPECT_EQ(ct.transactions, 1);
      EXPECT_EQ(static_cast<long long>(ct.word_times.size()),
                words.drives + words.samples);
      EXPECT_TRUE(std::is_sorted(ct.word_times.begin(), ct.word_times.end()));
    }
  }
}

TEST(TraceMinerTest, FlcKernelCounts128TransactionsPerChannel) {
  System system = suite::make_flc_kernel();
  system.find_bus("B")->width = 8;
  protocol::ProtocolGenOptions options;
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  ASSERT_TRUE(generator.generate_all(system).is_ok());

  sim::SimulationRun run = sim::simulate(system, 10'000'000, /*trace=*/true);
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  const ConformanceReport report = mine_and_diff(system, run.kernel->trace());
  EXPECT_TRUE(report.clean()) << report.to_string();
  ASSERT_EQ(report.traffic.size(), 1u);
  for (const ChannelTraffic& ct : report.traffic[0].channels) {
    SCOPED_TRACE(ct.channel);
    // ch1 writes every trru0 element (23-bit message: 3 words over 8
    // lines); ch2 reads every trru2 element (1 address + 2 data words).
    EXPECT_EQ(ct.transactions, 128);
    EXPECT_EQ(ct.word_times.size(), 128u * 3);
    EXPECT_LT(ct.word_times.front(), ct.word_times.back());
  }
}

TEST(TraceMinerTest, UnrefinedBusesAreIgnored) {
  const System system = suite::make_fig3_system();  // no procedures yet
  const ConformanceReport report = mine_and_diff(system, {});
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.skipped.empty());
  EXPECT_TRUE(report.traffic.empty());
}

TEST(TraceMinerTest, Fig3IsCleanUnderEveryEngine) {
  System system = refined_fig3();
  for (sim::Engine engine : {sim::Engine::kVm, sim::Engine::kAst}) {
    const ConformanceReport report =
        simulate_and_mine(system, system, engine);
    EXPECT_TRUE(report.clean())
        << sim::engine_name(engine) << ":\n" << report.to_string();
    EXPECT_EQ(report.transactions_mined, 4) << sim::engine_name(engine);
  }
}

TEST(TraceMinerTest, SynthesizedSuiteSystemsAreClean) {
  struct Case {
    const char* name;
    System (*build)();
    bool arbitrate;
  };
  // All three need arbitration: each has two or more master processes
  // on the shared bus, and the miner (correctly) refuses to serialize
  // an un-arbitrated multi-master lane -- see the skip test below.
  const Case cases[] = {
      {"flc_kernel", suite::make_flc_kernel, true},
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
    core::InterfaceSynthesizer synth(options);
    ASSERT_TRUE(synth.run(system).is_ok()) << c.name;

    sim::SimulationRun run =
        sim::simulate(system, /*max_time=*/10'000'000, /*trace=*/true);
    ASSERT_TRUE(run.result.status.is_ok()) << c.name << ": "
                                           << run.result.status;
    const ConformanceReport report =
        mine_and_diff(system, run.kernel->trace());
    EXPECT_TRUE(report.clean()) << c.name << ":\n" << report.to_string();
    EXPECT_GT(report.transactions_mined, 0) << c.name;
  }
}

// Un-arbitrated fig3 has two concurrent masters whose transactions may
// interleave on the shared record; the miner must decline (skip), not
// guess and emit bogus disagreements.
TEST(TraceMinerTest, UnarbitratedMultiMasterBusIsSkippedNotGuessed) {
  System system = suite::make_fig3_system();
  protocol::ProtocolGenOptions options;
  options.arbitrate = false;
  protocol::ProtocolGenerator generator(options);
  ASSERT_TRUE(generator.generate_all(system).is_ok());

  const ConformanceReport report = simulate_and_mine(system, system);
  EXPECT_TRUE(report.clean()) << report.to_string();
  ASSERT_EQ(report.skipped.size(), 1u) << report.to_string();
  EXPECT_EQ(report.skipped[0].bus, "B");
  EXPECT_EQ(report.transactions_mined, 0);
}

// ---- crafted traces: ID attribution corner cases ----------------------
// A transaction is attributed by the ID lines' value at its first
// instant: an ID committed in that instant counts whatever its storage
// order, and an absent ID entry means the lines still hold their last
// value (the kernel traces changes only, and signals start at 0).

/// Process P writes A, C and D on one full-handshake 8-bit bus, refined
/// with IDs 0, 1 and 2; dropping CH0 from the group leaves a refined
/// two-channel bus with IDs 1 and 2 and no channel at ID 0.
System refined_two_channel_bus() {
  Result<System> parsed = parse_system(R"(
    system crafted;
    variable A : bits(8);
    variable C : bits(8);
    variable D : bits(8);
    process P { wait 1; A := 1; C := 2; D := 3; }
    module M_P { process P; }
    module M_V { variable A; variable C; variable D; }
    bus B { channels all; width 8; }
  )");
  EXPECT_TRUE(parsed.is_ok()) << parsed.status();
  System system = std::move(parsed).value();
  protocol::ProtocolGenerator generator;
  const Status status = generator.generate_all(system);
  EXPECT_TRUE(status.is_ok()) << status;
  system.find_bus("B")->channel_names = {"CH1", "CH2"};
  return system;
}

sim::TraceEntry entry(std::uint64_t time, std::uint64_t delta,
                      const char* field, std::uint64_t value, int width) {
  return sim::TraceEntry{time, delta, sim::FieldKey{"B", field},
                         BitVector::from_uint(width, value)};
}

TEST(TraceMinerTest, IdStoredAfterTheFirstWordAttributesToItsChannel) {
  const System system = refined_two_channel_bus();
  ASSERT_EQ(system.find_channel("CH2")->id, 2);
  // ID=2 commits in the same instant as the first word but is stored
  // after its DATA; the second transaction leaves ID at 2 (no entry).
  const std::vector<sim::TraceEntry> trace = {
      entry(3, 0, "DATA", 0x55, 8), entry(3, 0, "ID", 2, 2),
      entry(3, 0, "START", 1, 1),   entry(3, 1, "DONE", 1, 1),
      entry(4, 0, "START", 0, 1),   entry(4, 1, "DONE", 0, 1),
      entry(5, 0, "DATA", 0x66, 8), entry(5, 0, "START", 1, 1),
      entry(5, 1, "DONE", 1, 1),    entry(6, 0, "START", 0, 1),
      entry(6, 1, "DONE", 0, 1),
  };
  const ConformanceReport report = mine_and_diff(system, trace);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.transactions_mined, 2);
  ASSERT_EQ(report.traffic.size(), 1u);
  const BusTraffic& bus = report.traffic[0];
  ASSERT_EQ(bus.channels.size(), 2u);
  EXPECT_EQ(bus.channels[0].channel, "CH1");
  EXPECT_EQ(bus.channels[0].transactions, 0);
  EXPECT_EQ(bus.channels[1].channel, "CH2");
  EXPECT_EQ(bus.channels[1].transactions, 2);
  EXPECT_EQ(bus.channels[1].word_times, (std::vector<std::uint64_t>{3, 5}));
}

TEST(TraceMinerTest, TrafficUnderAnIdNoChannelHasIsUnattributable) {
  const System system = refined_two_channel_bus();
  // No ID entry: the lines still hold 0, and no channel here has ID 0.
  const std::vector<sim::TraceEntry> trace = {
      entry(1, 0, "DATA", 0x55, 8),
      entry(1, 0, "START", 1, 1),
      entry(2, 0, "START", 0, 1),
  };
  const ConformanceReport report = mine_and_diff(system, trace);
  ASSERT_EQ(report.disagreements.size(), 1u) << report.to_string();
  const Disagreement& d = report.disagreements[0];
  EXPECT_EQ(d.kind, DisagreementKind::kUnattributable) << d.to_string();
  EXPECT_EQ(d.bus, "B");
  EXPECT_TRUE(d.channel.empty());
  EXPECT_EQ(d.signal, "B.ID");
  EXPECT_EQ(d.time, 1u);
  EXPECT_EQ(report.transactions_mined, 0);
}

// ---- seeded mutation 1: dropped DONE edge -----------------------------

Block strip_assign(const Block& block, const std::string& field,
                   std::int64_t value, int* removed) {
  Block out;
  for (const StmtPtr& stmt : block) {
    if (const auto* sa = stmt->as<SignalAssign>()) {
      const auto* il = sa->value->as<IntLit>();
      if (sa->field == field && il && il->value == value) {
        ++*removed;
        continue;
      }
    }
    if (const auto* fs = stmt->as<ForStmt>()) {
      out.push_back(for_stmt(fs->var, fs->from, fs->to,
                             strip_assign(fs->body, field, value, removed)));
      continue;
    }
    out.push_back(stmt);
  }
  return out;
}

// The dynamic twin of checker_test's DroppedDoneWaitDeadlocks: there the
// requester's DONE wait is dropped and the *static* composition must
// deadlock; here the defect family's terminating form runs for real.
// (Dropping the server's START=0 wait instead livelocks the kernel --
// wait_until is level-sensitive, so the serve loop never suspends and
// simulation yields no trace to mine; the static checker owns that
// variant.) Dropping the server's closing `DONE <= 0` leaves the
// acknowledge wire stuck high: the handshake's falling DONE edge the
// automaton promises never reaches the trace.
TEST(TraceMinerTest, DroppedDoneEdgeIsMissingEvent) {
  const System reference = refined_fig3();
  System mutant = refined_fig3();

  const Channel* ch0 = mutant.find_channel("CH0");
  ASSERT_NE(ch0, nullptr);
  // Tests may mutate generated procedures to seed defects; the bodies are
  // not semantically const, System just exposes no mutating lookup.
  auto* serve = const_cast<Procedure*>(
      mutant.find_procedure(protocol::serve_proc_name(*ch0)));
  ASSERT_NE(serve, nullptr);
  int removed = 0;
  serve->body = strip_assign(serve->body, "DONE", 0, &removed);
  ASSERT_GT(removed, 0) << "mutation found no DONE <= 0 to drop";

  sim::SimulationRun run = sim::simulate(mutant, 100'000, /*trace=*/true);
  const ConformanceReport report =
      mine_and_diff(reference, run.kernel->trace());
  ASSERT_FALSE(report.clean()) << "mutant trace passed conformance";
  const Disagreement& d = report.disagreements[0];
  EXPECT_EQ(d.kind, DisagreementKind::kMissingEvent) << d.to_string();
  EXPECT_EQ(d.bus, "B");
  EXPECT_EQ(d.signal, "B.DONE") << d.to_string();
  EXPECT_FALSE(d.channel.empty());
  EXPECT_NE(d.detail.find("DONE"), std::string::npos) << d.to_string();
}

// ---- seeded mutation 2: reordered strobe edge -------------------------

Block swap_data_before_strobe(const Block& block, int* swapped) {
  Block out;
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (i + 1 < block.size()) {
      const auto* a = block[i]->as<SignalAssign>();
      const auto* b = block[i + 1]->as<SignalAssign>();
      if (a && b && a->field == "DATA" && b->field == "START") {
        out.push_back(block[i + 1]);
        out.push_back(block[i]);
        ++i;
        ++*swapped;
        continue;
      }
    }
    if (const auto* fs = block[i]->as<ForStmt>()) {
      out.push_back(for_stmt(fs->var, fs->from, fs->to,
                             swap_data_before_strobe(fs->body, swapped)));
      continue;
    }
    out.push_back(block[i]);
  }
  return out;
}

// Swapping `DATA <= word` and `START <= parity` commits the data word
// *after* the strobe edge that announces it (trace order within a delta
// is commit-schedule order), which the miner must call out as a
// reordered edge, not as extra data.
TEST(TraceMinerTest, ReorderedStrobeEdgeIsReorderedEdge) {
  const System reference = refined_fig3(ProtocolKind::kHalfHandshake);
  System mutant = refined_fig3(ProtocolKind::kHalfHandshake);

  const Channel* ch0 = mutant.find_channel("CH0");
  ASSERT_NE(ch0, nullptr);
  auto* send = const_cast<Procedure*>(
      mutant.find_procedure(protocol::requester_proc_name(*ch0)));
  ASSERT_NE(send, nullptr);
  int swapped = 0;
  send->body = swap_data_before_strobe(send->body, &swapped);
  ASSERT_GT(swapped, 0) << "mutation found no DATA/START pair to swap";

  sim::SimulationRun run = sim::simulate(mutant, 100'000, /*trace=*/true);
  const ConformanceReport report =
      mine_and_diff(reference, run.kernel->trace());
  ASSERT_FALSE(report.clean()) << "mutant trace passed conformance";
  const Disagreement& d = report.disagreements[0];
  EXPECT_EQ(d.kind, DisagreementKind::kReorderedEdge) << d.to_string();
  EXPECT_EQ(d.bus, "B");
  EXPECT_EQ(d.signal, "B.DATA") << d.to_string();
  EXPECT_FALSE(d.channel.empty());
}

// ---- seeded mutation 3: +1 delay drift --------------------------------

Block bump_first_wait_for(const Block& block, int* bumped) {
  Block out;
  for (const StmtPtr& stmt : block) {
    if (*bumped == 0) {
      if (const auto* wf = stmt->as<WaitFor>()) {
        if (const auto* il = wf->cycles->as<IntLit>()) {
          out.push_back(wait_for(il->value + 1));
          ++*bumped;
          continue;
        }
      }
      if (const auto* fs = stmt->as<ForStmt>()) {
        out.push_back(for_stmt(fs->var, fs->from, fs->to,
                               bump_first_wait_for(fs->body, bumped)));
        continue;
      }
    }
    out.push_back(stmt);
  }
  return out;
}

// Stretching the sender's per-word hold by one cycle leaves every edge
// and its order intact but shifts the second word's commit instant: the
// classic calibration bug the kDelayDrift class exists for.
TEST(TraceMinerTest, StretchedHoldIsDelayDrift) {
  const System reference =
      refined_fig3(ProtocolKind::kFixedDelay, /*fixed_delay_cycles=*/2);
  System mutant =
      refined_fig3(ProtocolKind::kFixedDelay, /*fixed_delay_cycles=*/2);

  const Channel* ch0 = mutant.find_channel("CH0");
  ASSERT_NE(ch0, nullptr);
  auto* send = const_cast<Procedure*>(
      mutant.find_procedure(protocol::requester_proc_name(*ch0)));
  ASSERT_NE(send, nullptr);
  int bumped = 0;
  send->body = bump_first_wait_for(send->body, &bumped);
  ASSERT_EQ(bumped, 1) << "mutation found no wait_for to stretch";

  sim::SimulationRun run = sim::simulate(mutant, 100'000, /*trace=*/true);
  const ConformanceReport report =
      mine_and_diff(reference, run.kernel->trace());
  ASSERT_FALSE(report.clean()) << "mutant trace passed conformance";
  const Disagreement& d = report.disagreements[0];
  EXPECT_EQ(d.kind, DisagreementKind::kDelayDrift) << d.to_string();
  EXPECT_EQ(d.bus, "B");
  EXPECT_FALSE(d.channel.empty());
  EXPECT_NE(d.detail.find("statically expected"), std::string::npos)
      << d.to_string();
}

// ---- metrics ----------------------------------------------------------

TEST(TraceMinerTest, ExportsConformMetrics) {
  System system = refined_fig3();
  sim::SimulationRun run = sim::simulate(system, 1'000'000, /*trace=*/true);
  ASSERT_TRUE(run.result.status.is_ok());

  obs::MetricsRegistry registry;
  obs::ObsContext obs;
  obs.metrics = &registry;
  const ConformanceReport report =
      mine_and_diff(system, run.kernel->trace(), obs);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(registry.counter("check.conform.transactions").value(), 4u);
  EXPECT_EQ(registry.counter("check.conform.edges").value(), 58u);
  EXPECT_EQ(registry.counter("check.conform.disagreements").value(), 0u);
}

}  // namespace
}  // namespace ifsyn::check
