// ifsyn/explore/design_space.hpp
//
// Enumeration side of design-space exploration: a DesignPoint is one
// complete implementation decision for a partitioned system — how the
// channels are grouped onto buses, how wide the shared data path is, and
// which handshake protocol moves the words. The paper evaluates such
// points one at a time (Figs. 7-8 sweep the buswidth of one grouping by
// hand); DesignSpace enumerates the whole cross product
//
//   grouping plan x protocol kind x buswidth
//
// in a fixed order so the Explorer can fan evaluation out across threads
// and still merge results deterministically (point index = enumeration
// order, always).
//
// Pruning (eq1_prunes) skips points that provably cannot be feasible,
// using the paper's Eq. 1 arithmetic: a channel's average rate
// AveRate(C, w) = bits / T(w) is smallest at w = 1 (T is largest there),
// so any width whose bus rate is below the sum of those lower bounds is
// dominated — it can never satisfy Eq. 1 — and is skipped without a full
// evaluation.
#pragma once

#include <string>
#include <vector>

#include "estimate/performance_estimator.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::explore {

/// One way of assigning channels to buses. `bus_names[i]` names the bus
/// implementing `groups[i]`; names are stable across runs so reports and
/// refined systems are reproducible.
struct GroupingPlan {
  std::string name;  ///< "as-grouped", "single-bus", "per-accessor", ...
  std::vector<std::string> bus_names;
  std::vector<std::vector<std::string>> groups;  ///< channel names per bus

  /// Order-insensitive identity of one group, used as the memoization key
  /// prefix: the same channel set costs the same wherever it appears.
  static std::string group_signature(const std::vector<std::string>& group);
};

/// Candidate grouping plans for a system:
///   - "as-grouped": the system's existing bus groups (when present);
///   - with `alternatives`, additionally "single-bus" (all channels on one
///     bus), "per-accessor" (one bus per accessing process) and
///     "per-channel" (a dedicated bus per channel), skipping duplicates of
///     plans already listed.
std::vector<GroupingPlan> make_grouping_plans(const spec::System& system,
                                              bool alternatives);

/// One candidate implementation: plan `grouping` with every bus at
/// `width` data lines under `protocol`.
struct DesignPoint {
  std::size_t index = 0;     ///< position in enumeration order
  std::size_t grouping = 0;  ///< index into DesignSpace::groupings()
  int width = 0;
  spec::ProtocolKind protocol = spec::ProtocolKind::kFullHandshake;
  int fixed_delay_cycles = 2;
};

struct DesignSpaceOptions {
  /// Protocols to enumerate. kHardwiredPort is not explorable (it has no
  /// width dimension) and is rejected by DesignSpace::validate.
  std::vector<spec::ProtocolKind> protocols = {
      spec::ProtocolKind::kFullHandshake};
  int fixed_delay_cycles = 2;
  /// Width range; 0 = derive from the channels (1 .. largest message).
  int min_width = 0;
  int max_width = 0;
  /// Also enumerate single-bus / per-accessor / per-channel groupings.
  bool alternative_groupings = false;
};

class DesignSpace {
 public:
  /// `system` must outlive the space; channel access counts must already
  /// be annotated (spec::annotate_channel_accesses).
  DesignSpace(const spec::System& system,
              const estimate::PerformanceEstimator& estimator,
              DesignSpaceOptions options);

  /// Rejects empty protocol lists, kHardwiredPort, systems without
  /// channels, and inverted width ranges.
  Status validate() const;

  const std::vector<GroupingPlan>& groupings() const { return groupings_; }
  const DesignSpaceOptions& options() const { return options_; }
  const spec::System& system() const { return system_; }
  const estimate::PerformanceEstimator& estimator() const {
    return estimator_;
  }

  /// The width search range (step 1 of Sec. 3 generalized to the whole
  /// system: 1 .. largest message any channel sends), or the explicit
  /// override from the options.
  std::pair<int, int> width_range() const;

  /// The full cross product in deterministic order: grouping-major, then
  /// protocol, then ascending width. Indices are assigned 0..N-1.
  std::vector<DesignPoint> enumerate() const;

 private:
  const spec::System& system_;
  const estimate::PerformanceEstimator& estimator_;
  DesignSpaceOptions options_;
  std::vector<GroupingPlan> groupings_;
};

/// True when `point` cannot win, decided before full evaluation (see the
/// file comment): its bus rate undercuts the Eq. 1 demand lower bound of
/// some group. Pure -- the same answer for the same point regardless of
/// evaluation order or thread count, which the Explorer's determinism
/// guarantee depends on.
bool eq1_prunes(const DesignSpace& space, const DesignPoint& point);

}  // namespace ifsyn::explore
