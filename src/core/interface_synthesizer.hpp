// ifsyn/core/interface_synthesizer.hpp
//
// End-to-end interface synthesis (paper Fig. 1): given a partitioned
// system whose cross-module accesses are abstract channels grouped into
// buses, run bus generation (Sec. 3) and protocol generation (Sec. 4) on
// every group and produce the refined, simulatable specification plus a
// synthesis report with the numbers the paper's evaluation tables print.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bus/bus_generator.hpp"
#include "estimate/performance_estimator.hpp"
#include "obs/scoped_timer.hpp"
#include "protocol/protocol_generator.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::core {

struct SynthesisOptions {
  /// Constraints per bus group name (absent = unconstrained).
  std::map<std::string, std::vector<bus::BusConstraint>> constraints;
  spec::ProtocolKind protocol = spec::ProtocolKind::kFullHandshake;
  int fixed_delay_cycles = 2;
  bool arbitrate = false;
  /// Calibration: pin compute cycles for named processes.
  std::map<std::string, long long> compute_cycles_override;
  /// Run the static protocol checker (src/check) over the refined system
  /// after wire accounting and fail with kCheckFailed on any diagnostic.
  /// Opt out only when deliberately producing a system the checker
  /// rejects (e.g. a pinned width below the Eq. 1 floor).
  bool run_checker = true;
  /// Optional metrics/trace hooks. Phase timings land as wall-clock
  /// counters synth.phase.p1..p5_*; work counts (buses generated, widths
  /// evaluated, groups split) as deterministic "synth." counters.
  obs::ObsContext obs;
};

struct BusReport {
  std::string bus;
  bus::BusGenResult generation;
  int id_bits = 0;
  int control_lines = 0;
  int total_wires = 0;
};

struct SynthesisReport {
  std::vector<BusReport> buses;
  /// Pins if every channel kept dedicated message-wide wires.
  int dedicated_data_pins = 0;
  /// Data pins after merging (sum of selected widths).
  int merged_data_pins = 0;
  double interconnect_reduction = 0;
  /// Names of buses created by splitting infeasible groups (if any):
  /// a multi-channel group no width can serve is always split, the
  /// paper's Sec. 3 escape hatch.
  std::vector<std::string> split_buses;
};

class InterfaceSynthesizer {
 public:
  explicit InterfaceSynthesizer(SynthesisOptions options = {});

  /// Run the full flow on `system` in place: annotate channel access
  /// counts, generate every bus group's width, then generate protocols
  /// and servers. The system must already be partitioned and grouped.
  Result<SynthesisReport> run(spec::System& system) const;

 private:
  SynthesisOptions options_;
};

}  // namespace ifsyn::core
