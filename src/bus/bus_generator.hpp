// ifsyn/bus/bus_generator.hpp
//
// The bus generation algorithm of Sec. 3 (originally the authors'
// EDAC'92 paper [8]): pick the cheapest buswidth that satisfies the
// data-transfer needs of a group of channels.
//
// Five steps, implemented verbatim:
//   1. Determine the buswidth range: [1, largest message any channel
//      sends].
//   2. For each width, compute the bus rate (Eq. 2).
//   3. Compute every channel's average rate at that width; the width is
//      feasible iff BusRate >= sum of average rates (Eq. 1).
//   4. Compute the cost of the candidate: weighted sum of squared
//      constraint violations.
//   5. Among feasible candidates, select the least-cost width (tie:
//      narrowest bus, minimizing interconnect). If no width is feasible,
//      report kInfeasible -- the group must be split across buses, which
//      split_group() implements (the "one solution to this problem" the
//      paper sketches at the end of Sec. 3).
#pragma once

#include <vector>

#include "bus/constraints.hpp"
#include "estimate/performance_estimator.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::bus {

struct BusGenOptions {
  spec::ProtocolKind protocol = spec::ProtocolKind::kFullHandshake;
  /// Cycles per word under kFixedDelay; ignored by the other protocols.
  /// Must match what protocol generation will later put on the bus, or
  /// Eq. 1/Eq. 2 are evaluated against the wrong timing.
  int fixed_delay_cycles = 2;
  std::vector<BusConstraint> constraints;
};

/// Everything computed for one candidate width (steps 2-4); kept so
/// benches and tests can print the whole exploration, not just the winner.
struct WidthEvaluation {
  int width = 0;
  double bus_rate = 0;          ///< Eq. 2
  double sum_average_rates = 0; ///< right side of Eq. 1
  bool feasible = false;
  double cost = 0;
  std::vector<estimate::ChannelRates> channel_rates;
};

struct BusGenResult {
  int selected_width = 0;
  double selected_bus_rate = 0;
  double selected_cost = 0;
  /// Sum of message bits of all channels: the pins needed if each channel
  /// kept dedicated wires. Fig. 8's "Total Bitwidth of the channels".
  int total_channel_bits = 0;
  /// 1 - selected_width / total_channel_bits (data lines only, as in the
  /// paper's "reduction in the number of data lines" of Sec. 5).
  double interconnect_reduction = 0;
  std::vector<WidthEvaluation> evaluations;

  const WidthEvaluation* evaluation_for(int width) const;
};

class BusGenerator {
 public:
  /// `system` and `estimator` must outlive the generator.
  BusGenerator(const spec::System& system,
               const estimate::PerformanceEstimator& estimator);

  /// Run steps 1-5 for one channel group. kInfeasible when no width in
  /// [1, largest message] satisfies Eq. 1; kInvalidArgument for empty groups.
  Result<BusGenResult> generate(const spec::BusGroup& bus,
                                const BusGenOptions& options) const;

  /// Evaluate one specific width (steps 2-4 only). Exposed for tests,
  /// Fig. 7-style sweeps, and what-if exploration.
  WidthEvaluation evaluate_width(const spec::BusGroup& bus, int width,
                                 const BusGenOptions& options) const;

  /// Greedy fallback for infeasible groups: partition the channels into
  /// the minimum number of subgroups (by descending average-rate demand,
  /// first-fit) such that each subgroup is feasible at its own best
  /// width. Returns the subgroups as lists of channel names.
  Result<std::vector<std::vector<std::string>>> split_group(
      const spec::BusGroup& bus, const BusGenOptions& options) const;

  /// Step 1: the width search range for a group, [1, largest message].
  std::pair<int, int> width_range(const spec::BusGroup& bus) const;

 private:
  const spec::System& system_;
  const estimate::PerformanceEstimator& estimator_;
};

}  // namespace ifsyn::bus
