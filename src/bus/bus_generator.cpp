#include "bus/bus_generator.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace ifsyn::bus {

const WidthEvaluation* BusGenResult::evaluation_for(int width) const {
  for (const auto& e : evaluations) {
    if (e.width == width) return &e;
  }
  return nullptr;
}

BusGenerator::BusGenerator(const spec::System& system,
                           const estimate::PerformanceEstimator& estimator)
    : system_(system), estimator_(estimator) {}

std::pair<int, int> BusGenerator::width_range(
    const spec::BusGroup& bus) const {
  int largest_message = 1;
  for (const spec::Channel* ch : system_.channels_of_bus(bus)) {
    largest_message = std::max(largest_message, ch->message_bits());
  }
  return {1, largest_message};
}

WidthEvaluation BusGenerator::evaluate_width(
    const spec::BusGroup& bus, int width, const BusGenOptions& options) const {
  WidthEvaluation eval;
  eval.width = width;
  eval.bus_rate = estimate::bus_rate(width, options.protocol,
                                     options.fixed_delay_cycles);    // step 2
  eval.channel_rates = estimator_.channel_rates(
      bus, width, options.protocol, options.fixed_delay_cycles);     // step 3
  eval.sum_average_rates = std::accumulate(
      eval.channel_rates.begin(), eval.channel_rates.end(), 0.0,
      [](double acc, const estimate::ChannelRates& r) {
        return acc + r.average;
      });
  eval.feasible = eval.bus_rate >= eval.sum_average_rates;           // Eq. 1
  eval.cost =
      implementation_cost(options.constraints, width, eval.channel_rates);
  return eval;
}

Result<BusGenResult> BusGenerator::generate(const spec::BusGroup& bus,
                                            const BusGenOptions& options) const {
  if (bus.channel_names.empty()) {
    return invalid_argument("bus group " + bus.name + " has no channels");
  }

  BusGenResult result;
  for (const spec::Channel* ch : system_.channels_of_bus(bus)) {
    if (ch->accesses <= 0) {
      return failed_precondition(
          "channel " + ch->name +
          " has no access count; run spec::annotate_channel_accesses first");
    }
    result.total_channel_bits += ch->message_bits();
  }

  const auto [lo, hi] = width_range(bus);

  // Track the winner by index: the evaluations vector reallocates as it
  // grows, so a pointer/reference into it would dangle.
  std::ptrdiff_t best = -1;
  for (int width = lo; width <= hi; ++width) {
    result.evaluations.push_back(evaluate_width(bus, width, options));
    const WidthEvaluation& eval = result.evaluations.back();
    if (!eval.feasible) continue;
    // Step 5: least cost wins; ties go to the narrower bus, which is the
    // earlier candidate, so strict less-than implements the tiebreak.
    if (best < 0 ||
        eval.cost < result.evaluations[static_cast<std::size_t>(best)].cost) {
      best = static_cast<std::ptrdiff_t>(result.evaluations.size()) - 1;
    }
  }

  if (best < 0) {
    return infeasible("no feasible buswidth in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "] for bus " + bus.name +
                      "; split the channel group (see split_group)");
  }

  const WidthEvaluation& winner =
      result.evaluations[static_cast<std::size_t>(best)];
  result.selected_width = winner.width;
  result.selected_bus_rate = winner.bus_rate;
  result.selected_cost = winner.cost;
  // total_channel_bits is positive whenever the group has channels, but a
  // zero-width message would make the ratio NaN; report 0 instead.
  result.interconnect_reduction =
      result.total_channel_bits > 0
          ? 1.0 - static_cast<double>(winner.width) / result.total_channel_bits
          : 0.0;
  return result;
}

Result<std::vector<std::vector<std::string>>> BusGenerator::split_group(
    const spec::BusGroup& bus, const BusGenOptions& options) const {
  // Order channels by descending bandwidth demand at their own best case
  // (widest useful word: the message size), then first-fit each into the
  // first subgroup that stays feasible.
  std::vector<const spec::Channel*> channels = system_.channels_of_bus(bus);
  std::vector<double> demand(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    demand[i] = estimator_.average_rate(*channels[i],
                                        channels[i]->message_bits(),
                                        options.protocol,
                                        options.fixed_delay_cycles);
  }
  std::vector<std::size_t> order(channels.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&demand](std::size_t a, std::size_t b) {
    return demand[a] > demand[b];
  });

  // Trial subgroups are plain BusGroup values; channel resolution is by
  // name, so they never have to be registered with the system.
  auto feasible_group = [this,
                         &options](const std::vector<std::string>& names) {
    spec::BusGroup trial;
    trial.name = "__trial";
    trial.channel_names = names;
    BusGenOptions no_constraints = options;
    no_constraints.constraints.clear();
    const auto [lo, hi] = width_range(trial);
    for (int width = lo; width <= hi; ++width) {
      if (evaluate_width(trial, width, no_constraints).feasible) return true;
    }
    return false;
  };

  std::vector<std::vector<std::string>> groups;
  for (std::size_t idx : order) {
    const std::string& name = channels[idx]->name;
    bool placed = false;
    for (auto& group : groups) {
      group.push_back(name);
      if (feasible_group(group)) {
        placed = true;
        break;
      }
      group.pop_back();
    }
    if (!placed) {
      std::vector<std::string> solo{name};
      if (!feasible_group(solo)) {
        return infeasible("channel " + name +
                          " is infeasible even on a dedicated bus");
      }
      groups.push_back(std::move(solo));
    }
  }
  return groups;
}

}  // namespace ifsyn::bus
