#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"

namespace ifsyn::core {

namespace {

void render_channels(std::ostringstream& os, const spec::System& system) {
  os << "## Channels\n\n";
  if (system.channels().empty()) {
    os << "_No cross-module channels._\n\n";
    return;
  }
  os << "| channel | accessor | dir | variable | message (data+addr) | "
        "accesses | bus | id |\n";
  os << "|---|---|---|---|---|---|---|---|\n";
  for (const auto& ch : system.channels()) {
    os << "| " << ch->name << " | " << ch->accessor << " | "
       << (ch->is_read() ? "read" : "write") << " | " << ch->variable
       << " | " << ch->message_bits() << " (" << ch->data_bits << "+"
       << ch->addr_bits << ") | " << ch->accesses << " | "
       << (ch->bus.empty() ? "-" : ch->bus) << " | ";
    if (ch->id >= 0) {
      os << ch->id;
    } else {
      os << "-";
    }
    os << " |\n";
  }
  os << "\n";
}

void render_buses(std::ostringstream& os, const spec::System& system,
                  const SynthesisReport& synthesis) {
  os << "## Buses\n\n";
  os << "| bus | protocol | data | control | id | total wires | "
        "arbitrated |\n";
  os << "|---|---|---|---|---|---|---|\n";
  for (const auto& bus : system.buses()) {
    os << "| " << bus->name << " | " << protocol_kind_name(bus->protocol)
       << " | " << bus->width << " | " << bus->control_lines << " | "
       << bus->id_bits << " | " << bus->total_wires() << " | "
       << (bus->arbitrated ? "yes" : "no") << " |\n";
  }
  os << "\n";

  for (const BusReport& report : synthesis.buses) {
    if (report.generation.evaluations.empty()) continue;
    os << "### Width exploration: " << report.bus << "\n\n";
    os << "Selected **" << report.generation.selected_width << "** of "
       << report.generation.total_channel_bits
       << " dedicated channel bits (interconnect reduction "
       << std::fixed << std::setprecision(1)
       << report.generation.interconnect_reduction * 100 << " %).\n\n";
    os << "| width | bus rate (b/clk) | demand (b/clk) | feasible | cost |\n";
    os << "|---|---|---|---|---|\n";
    for (const bus::WidthEvaluation& eval : report.generation.evaluations) {
      os << "| " << eval.width << " | " << std::setprecision(2)
         << eval.bus_rate << " | " << eval.sum_average_rates << " | "
         << (eval.feasible ? "yes" : "no") << " | " << eval.cost;
      if (eval.width == report.generation.selected_width) {
        os << " **(selected)**";
      }
      os << " |\n";
    }
    os << "\n";
  }
  if (!synthesis.split_buses.empty()) {
    os << "_Infeasible-group splitting created " << synthesis.split_buses.size()
       << " additional bus(es) (paper Sec. 3 step 5)._\n\n";
  }
}

void render_equivalence(std::ostringstream& os,
                        const EquivalenceReport& equivalence) {
  os << "## Co-simulation\n\n";
  os << "- original completed at t = " << equivalence.original_time << "\n";
  os << "- refined completed at t = " << equivalence.refined_time;
  if (equivalence.original_time > 0) {
    os << " (" << std::fixed << std::setprecision(2)
       << static_cast<double>(equivalence.refined_time) /
              static_cast<double>(equivalence.original_time)
       << "x)";
  }
  os << "\n- functional equivalence: **"
     << (equivalence.equivalent ? "PASS" : "FAIL") << "**\n";
  for (const std::string& mismatch : equivalence.mismatches) {
    os << "  - mismatch: " << mismatch << "\n";
  }
  std::uint64_t arbitration_wait = 0;
  for (const auto& proc : equivalence.refined.processes) {
    arbitration_wait += proc.bus_wait_cycles;
  }
  if (arbitration_wait > 0) {
    os << "- total arbitration waiting: " << arbitration_wait
       << " cycles\n";
    for (const auto& proc : equivalence.refined.processes) {
      if (proc.bus_wait_cycles == 0) continue;
      os << "  - " << proc.name << ": " << proc.bus_wait_cycles
         << " cycles blocked on bus locks\n";
    }
  }
  // Per-bus load in the refined run: how busy each generated bus was and
  // how much of the wall the requesters spent queued for it.
  for (const sim::BusStats& bus : equivalence.refined.buses) {
    if (bus.acquisitions == 0) continue;
    os << "- bus " << bus.bus << ": " << std::fixed << std::setprecision(1)
       << bus.utilization(equivalence.refined.end_time) * 100
       << " % utilization (" << bus.hold_cycles << " of "
       << equivalence.refined.end_time << " cycles held, "
       << bus.acquisitions << " acquisitions, " << bus.wait_cycles
       << " cycles waited)\n";
  }
  os << "\n";
}

void render_metrics(std::ostringstream& os,
                    const obs::MetricsSnapshot& metrics) {
  const std::string table = metrics.deterministic_markdown();
  if (table.empty()) return;
  os << "## Metrics\n\n";
  os << "_Deterministic metrics only; wall-clock timings live in the "
        "--metrics JSON._\n\n";
  os << table << "\n";
}

}  // namespace

std::string render_traffic_markdown(const check::ConformanceReport& mined,
                                    std::uint64_t end_time) {
  // Why mining gave up on `bus`, or empty when it mined every lane.
  const auto unmeasured = [&](const std::string& bus) -> std::string {
    for (const check::SkippedLane& s : mined.skipped) {
      if (s.bus == bus) return "mining skipped: " + s.reason;
    }
    for (const check::Disagreement& d : mined.disagreements) {
      if (d.bus == bus) return d.to_string();
    }
    return "";
  };
  std::ostringstream os;
  os << "## Measured bus traffic\n\n";
  for (const check::BusTraffic& bus : mined.traffic) {
    const std::string why = unmeasured(bus.bus);
    if (!why.empty()) {
      os << "### " << bus.bus << " — not measured: " << why << "\n\n";
      continue;
    }
    long long words = 0;
    for (const check::ChannelTraffic& ct : bus.channels) {
      words += static_cast<long long>(ct.word_times.size());
    }
    // Busy share of the run, averaged over the bus's lanes.
    const double span = static_cast<double>(end_time) * bus.lanes;
    const double utilization =
        span > 0 ? std::min(1.0, words * bus.cycles_per_word / span) : 0.0;
    os << "### " << bus.bus << " — " << words << " words, " << std::fixed
       << std::setprecision(1) << utilization * 100 << " % utilization\n\n";
    os << "| channel | transactions | words | first | last |\n";
    os << "|---|---|---|---|---|\n";
    for (const check::ChannelTraffic& ct : bus.channels) {
      const bool moved = !ct.word_times.empty();
      os << "| " << ct.channel << " | " << ct.transactions << " | "
         << ct.word_times.size() << " | "
         << (moved ? ct.word_times.front() : 0) << " | "
         << (moved ? ct.word_times.back() : 0) << " |\n";
    }
    os << "\n";
  }
  return os.str();
}

std::string render_markdown_report(const ReportInputs& inputs) {
  IFSYN_ASSERT_MSG(inputs.refined && inputs.synthesis,
                   "report needs at least the refined system and the "
                   "synthesis report");
  const spec::System& system = *inputs.refined;

  std::ostringstream os;
  os << "# Interface synthesis report: " << system.name() << "\n\n";
  os << "- processes: " << system.processes().size()
     << " (incl. generated servers)\n";
  os << "- variables: " << system.variables().size() << "\n";
  os << "- channels: " << system.channels().size() << "\n";
  os << "- buses: " << system.buses().size() << "\n";
  if (inputs.synthesis->dedicated_data_pins > 0) {
    os << "- data pins: " << inputs.synthesis->merged_data_pins << " merged vs "
       << inputs.synthesis->dedicated_data_pins << " dedicated ("
       << std::fixed << std::setprecision(1)
       << inputs.synthesis->interconnect_reduction * 100 << " % reduction)\n";
  } else {
    // No cross-module channels means no dedicated-pin baseline; the
    // reduction ratio is undefined, so report 0 with a note rather than
    // dividing by zero.
    os << "- data pins: 0 merged vs 0 dedicated "
          "(reduction 0.0 % — no cross-module channels)\n";
  }
  os << "\n";

  render_channels(os, system);
  render_buses(os, system, *inputs.synthesis);
  if (inputs.equivalence) render_equivalence(os, *inputs.equivalence);
  if (inputs.metrics) render_metrics(os, *inputs.metrics);
  return os.str();
}

}  // namespace ifsyn::core
