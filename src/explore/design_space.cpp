#include "explore/design_space.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "estimate/rate_model.hpp"
#include "util/assert.hpp"

namespace ifsyn::explore {

std::string GroupingPlan::group_signature(
    const std::vector<std::string>& group) {
  std::vector<std::string> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  std::string sig;
  for (const std::string& name : sorted) {
    if (!sig.empty()) sig += '+';
    sig += name;
  }
  return sig;
}

namespace {

/// Order-insensitive identity of a whole plan, for duplicate elimination.
std::string plan_signature(const GroupingPlan& plan) {
  std::vector<std::string> sigs;
  for (const auto& group : plan.groups) {
    sigs.push_back(GroupingPlan::group_signature(group));
  }
  std::sort(sigs.begin(), sigs.end());
  std::string sig;
  for (const std::string& s : sigs) {
    sig += s;
    sig += '|';
  }
  return sig;
}

}  // namespace

std::vector<GroupingPlan> make_grouping_plans(const spec::System& system,
                                              bool alternatives) {
  std::vector<GroupingPlan> plans;
  std::set<std::string> seen;

  auto add_plan = [&plans, &seen](GroupingPlan plan) {
    if (plan.groups.empty()) return;
    if (!seen.insert(plan_signature(plan)).second) return;  // duplicate
    plans.push_back(std::move(plan));
  };

  if (!system.buses().empty()) {
    GroupingPlan as_grouped;
    as_grouped.name = "as-grouped";
    for (const auto& bus : system.buses()) {
      if (bus->channel_names.empty()) continue;
      as_grouped.bus_names.push_back(bus->name);
      as_grouped.groups.push_back(bus->channel_names);
    }
    add_plan(std::move(as_grouped));
  }

  if (system.buses().empty() || alternatives) {
    GroupingPlan single;
    single.name = "single-bus";
    single.bus_names.push_back("XBUS");
    single.groups.emplace_back();
    for (const auto& ch : system.channels()) {
      single.groups.back().push_back(ch->name);
    }
    add_plan(std::move(single));
  }

  if (alternatives) {
    // One bus per accessing process, in first-channel order.
    GroupingPlan per_accessor;
    per_accessor.name = "per-accessor";
    std::map<std::string, std::size_t> accessor_group;
    for (const auto& ch : system.channels()) {
      auto [it, inserted] = accessor_group.try_emplace(
          ch->accessor, per_accessor.groups.size());
      if (inserted) {
        per_accessor.bus_names.push_back(
            "XBUS_" + std::to_string(per_accessor.groups.size()));
        per_accessor.groups.emplace_back();
      }
      per_accessor.groups[it->second].push_back(ch->name);
    }
    add_plan(std::move(per_accessor));

    GroupingPlan per_channel;
    per_channel.name = "per-channel";
    for (const auto& ch : system.channels()) {
      per_channel.bus_names.push_back(
          "XBUS_" + std::to_string(per_channel.groups.size()));
      per_channel.groups.push_back({ch->name});
    }
    add_plan(std::move(per_channel));
  }

  return plans;
}

bool eq1_prunes(const DesignSpace& space, const DesignPoint& point) {
  const GroupingPlan& plan = space.groupings()[point.grouping];
  const double rate = estimate::bus_rate(point.width, point.protocol,
                                         point.fixed_delay_cycles);
  for (const auto& group : plan.groups) {
    // Lower bound on the group's Eq. 1 demand: each channel's average
    // rate at width 1, where the accessor's execution time T(w) — the
    // denominator of AveRate — is at its maximum.
    double demand_floor = 0;
    for (const std::string& name : group) {
      const spec::Channel* ch = space.system().find_channel(name);
      IFSYN_ASSERT_MSG(ch, "unknown channel " << name);
      demand_floor += space.estimator().average_rate(
          *ch, /*width=*/1, point.protocol, point.fixed_delay_cycles);
    }
    if (rate < demand_floor) return true;
  }
  return false;
}

DesignSpace::DesignSpace(const spec::System& system,
                         const estimate::PerformanceEstimator& estimator,
                         DesignSpaceOptions options)
    : system_(system),
      estimator_(estimator),
      options_(std::move(options)),
      groupings_(
          make_grouping_plans(system, options_.alternative_groupings)) {}

Status DesignSpace::validate() const {
  if (options_.protocols.empty()) {
    return invalid_argument("design space needs at least one protocol");
  }
  for (spec::ProtocolKind kind : options_.protocols) {
    if (kind == spec::ProtocolKind::kHardwiredPort) {
      return invalid_argument(
          "hardwired ports have no width dimension to explore");
    }
  }
  if (system_.channels().empty()) {
    return failed_precondition(
        "system has no channels; partition it before exploring");
  }
  if (groupings_.empty()) {
    return failed_precondition("no grouping plan covers the channels");
  }
  const auto [lo, hi] = width_range();
  if (lo > hi) {
    return invalid_argument("empty width range [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]");
  }
  return Status::ok();
}

std::pair<int, int> DesignSpace::width_range() const {
  int largest_message = 1;
  for (const auto& ch : system_.channels()) {
    largest_message = std::max(largest_message, ch->message_bits());
  }
  const int lo = options_.min_width > 0 ? options_.min_width : 1;
  const int hi =
      options_.max_width > 0 ? options_.max_width : largest_message;
  return {lo, hi};
}

std::vector<DesignPoint> DesignSpace::enumerate() const {
  const auto [lo, hi] = width_range();
  std::vector<DesignPoint> points;
  for (std::size_t g = 0; g < groupings_.size(); ++g) {
    for (spec::ProtocolKind kind : options_.protocols) {
      for (int width = lo; width <= hi; ++width) {
        DesignPoint point;
        point.index = points.size();
        point.grouping = g;
        point.width = width;
        point.protocol = kind;
        point.fixed_delay_cycles = options_.fixed_delay_cycles;
        points.push_back(point);
      }
    }
  }
  return points;
}

}  // namespace ifsyn::explore
