#include "core/interface_synthesizer.hpp"

#include <optional>

#include "check/checker.hpp"
#include "partition/partitioner.hpp"
#include "spec/analysis.hpp"
#include "util/assert.hpp"

namespace ifsyn::core {

InterfaceSynthesizer::InterfaceSynthesizer(SynthesisOptions options)
    : options_(std::move(options)) {}

Result<SynthesisReport> InterfaceSynthesizer::run(spec::System& system) const {
  const obs::ObsContext& obs = options_.obs;

  {
    obs::ScopedTimer t(obs, "synth.phase.p1_validate_us", "P1 validate",
                       "synth");
    IFSYN_RETURN_IF_ERROR(system.validate());
    if (system.buses().empty()) {
      return failed_precondition(
          "system has no bus groups; partition and group channels first");
    }
  }

  {
    obs::ScopedTimer t(obs, "synth.phase.p2_annotate_us", "P2 annotate",
                       "synth");
    IFSYN_RETURN_IF_ERROR(spec::annotate_channel_accesses(system));
  }

  estimate::PerformanceEstimator estimator(system);
  for (const auto& [process, cycles] : options_.compute_cycles_override) {
    estimator.set_compute_cycles(process, cycles);
  }
  bus::BusGenerator generator(system, estimator);

  // Snapshot compute cycles now: the P6 rate re-check must reproduce the
  // Eq. 1 arithmetic bus generation is about to use, and the default
  // compute model reads process bodies that P4 rewrites.
  const std::map<std::string, long long> compute_snapshot =
      check::snapshot_compute_cycles(system, options_.compute_cycles_override);

  SynthesisReport report;

  // ---- bus generation per group (widths), with optional splitting ----
  std::optional<obs::ScopedTimer> bus_gen_timer;
  bus_gen_timer.emplace(obs, "synth.phase.p3_bus_generation_us",
                        "P3 bus generation", "synth");
  // Collect names first: splitting adds new groups while we iterate.
  std::vector<std::string> bus_names;
  for (const auto& b : system.buses()) bus_names.push_back(b->name);

  for (std::size_t i = 0; i < bus_names.size(); ++i) {
    spec::BusGroup* group = system.find_bus(bus_names[i]);
    IFSYN_ASSERT(group);
    if (group->generated()) continue;  // width pinned by the caller

    if (options_.protocol == spec::ProtocolKind::kHardwiredPort) {
      // No width search: every channel keeps dedicated message-wide
      // wires; protocol generation computes the totals. This is the
      // "no merging" baseline for interconnect comparisons.
      BusReport bus_report;
      bus_report.bus = group->name;
      for (const spec::Channel* ch : system.channels_of_bus(*group)) {
        bus_report.generation.total_channel_bits += ch->message_bits();
      }
      report.buses.push_back(std::move(bus_report));
      continue;
    }

    bus::BusGenOptions options;
    options.protocol = options_.protocol;
    options.fixed_delay_cycles = options_.fixed_delay_cycles;
    if (auto it = options_.constraints.find(group->name);
        it != options_.constraints.end()) {
      options.constraints = it->second;
    }

    Result<bus::BusGenResult> result = generator.generate(*group, options);
    if (!result.is_ok()) {
      if (result.status().code() != StatusCode::kInfeasible ||
          group->channel_names.size() <= 1) {
        return result.status();
      }
      // Sec. 3 step 5: "One solution ... would be to split the group of
      // channels further to be implemented by more than one bus."
      Result<std::vector<std::vector<std::string>>> split =
          generator.split_group(*group, options);
      if (!split.is_ok()) return split.status();
      IFSYN_ASSERT_MSG(split.value().size() > 1,
                       "split of infeasible group produced one group");
      if (obs.metrics) obs.metrics->counter("synth.groups_split").add(1);

      // Re-point the original group at the first subgroup and create new
      // groups for the rest; all get queued for generation.
      const auto& subgroups = split.value();
      group->channel_names = subgroups[0];
      for (std::size_t g = 1; g < subgroups.size(); ++g) {
        spec::BusGroup extra;
        extra.name = group->name + "_split" + std::to_string(g);
        extra.channel_names = subgroups[g];
        report.split_buses.push_back(extra.name);
        bus_names.push_back(extra.name);
        spec::BusGroup& added = system.add_bus(extra);
        (void)added;
      }
      // Fix channel->bus back-pointers for the re-pointed original group.
      for (const auto& name : group->channel_names) {
        system.find_channel(name)->bus = group->name;
      }
      --i;  // regenerate the (now smaller) original group
      continue;
    }

    group->width = result.value().selected_width;
    group->width_from_generator = true;

    BusReport bus_report;
    bus_report.bus = group->name;
    bus_report.generation = std::move(result).value();
    if (obs.metrics) {
      obs.metrics->counter("synth.buses_generated").add(1);
      obs.metrics->counter("synth.width_evaluations")
          .add(bus_report.generation.evaluations.size());
    }
    report.buses.push_back(std::move(bus_report));
  }
  bus_gen_timer.reset();

  // ---- protocol generation (Sec. 4) over all groups ----
  {
    obs::ScopedTimer t(obs, "synth.phase.p4_protocol_generation_us",
                       "P4 protocol generation", "synth");
    protocol::ProtocolGenOptions pg_options;
    pg_options.protocol = options_.protocol;
    pg_options.fixed_delay_cycles = options_.fixed_delay_cycles;
    pg_options.arbitrate = options_.arbitrate;
    pg_options.obs = obs;
    protocol::ProtocolGenerator pg(pg_options);
    IFSYN_RETURN_IF_ERROR(pg.generate_all(system));
  }

  // ---- wire accounting ----
  {
    obs::ScopedTimer wire_timer(obs, "synth.phase.p5_wire_accounting_us",
                                "P5 wire accounting", "synth");
    for (BusReport& bus_report : report.buses) {
      const spec::BusGroup* group = system.find_bus(bus_report.bus);
      IFSYN_ASSERT(group);
      bus_report.id_bits = group->id_bits;
      bus_report.control_lines = group->control_lines;
      bus_report.total_wires = group->total_wires();
    }
    // Pins come from every bus in the system, not from the generator's
    // results: a bus whose width the spec pins never reaches generation.
    for (const auto& group : system.buses()) {
      for (const spec::Channel* ch : system.channels_of_bus(*group)) {
        report.dedicated_data_pins += ch->message_bits();
      }
      report.merged_data_pins += group->width;
    }
    if (report.dedicated_data_pins > 0) {
      report.interconnect_reduction =
          1.0 - static_cast<double>(report.merged_data_pins) /
                    report.dedicated_data_pins;
    }
  }

  // ---- static protocol check over the refined system ----
  if (options_.run_checker) {
    obs::ScopedTimer t(obs, "synth.phase.p6_check_us", "P6 check", "synth");
    check::CheckOptions check_options;
    check_options.compute_cycles_override = compute_snapshot;
    const check::CheckReport check_report =
        check::run_checks(system, check_options, obs);
    if (!check_report.clean()) {
      return check_failed("synthesized system failed the static protocol "
                          "check:\n" +
                          check_report.to_string());
    }
  }
  return report;
}

}  // namespace ifsyn::core
