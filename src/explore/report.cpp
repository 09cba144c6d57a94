#include "explore/report.hpp"

#include <sstream>

#include "util/json.hpp"

namespace ifsyn::explore {

namespace {

const char* protocol_short_name(spec::ProtocolKind kind) {
  switch (kind) {
    case spec::ProtocolKind::kFullHandshake: return "full";
    case spec::ProtocolKind::kHalfHandshake: return "half";
    case spec::ProtocolKind::kFixedDelay: return "fixed";
    case spec::ProtocolKind::kHardwiredPort: return "wired";
  }
  return "?";
}

void render_metrics_markdown(std::ostringstream& os,
                             const obs::MetricsSnapshot& metrics) {
  const std::string table = metrics.deterministic_markdown();
  if (table.empty()) return;
  os << "\n## Metrics\n\n";
  os << "_Deterministic metrics only (byte-identical across thread "
        "counts); wall-clock timings live in the --metrics JSON._\n\n";
  os << table;
}

}  // namespace

std::string render_exploration_markdown(const spec::System& system,
                                        const ExploreOptions& options,
                                        const ExplorationResult& result) {
  std::ostringstream os;
  os << "# Design-space exploration: " << system.name() << "\n\n";

  os << "## Space\n\n";
  os << "- channels: " << system.channels().size() << "\n";
  os << "- protocols:";
  for (spec::ProtocolKind kind : options.space.protocols) {
    os << " " << protocol_short_name(kind);
  }
  os << "\n";
  os << "- points: " << result.stats.total_points << " enumerated, "
     << result.stats.pruned_points << " pruned, "
     << result.stats.evaluated_points << " evaluated\n";
  os << "- feasible (Eq. 1): " << result.stats.feasible_points
     << "; within constraints: " << result.stats.candidate_points << "\n";
  os << "- estimation cache: " << result.stats.cache_hits << " hits, "
     << result.stats.cache_misses << " misses\n";
  if (!options.max_execution_clocks.empty()) {
    os << "- constraints:";
    for (const auto& [process, limit] : options.max_execution_clocks) {
      os << " " << process << " <= " << limit << " clk;";
    }
    os << "\n";
  }
  os << "\n";

  os << "## Pareto front (total wires vs. worst-case clocks)\n\n";
  if (result.front.empty()) {
    os << "_No feasible design point satisfies the constraints._\n";
    render_metrics_markdown(os, result.metrics);
    return os.str();
  }
  const ParetoEntry* knee = result.front.knee();
  os << "| wires | data pins | clocks | limiting process | protocol | "
        "width | grouping | validated |\n";
  os << "|---|---|---|---|---|---|---|---|\n";
  for (const ParetoEntry& entry : result.front.entries()) {
    const PointResult& point = result.result_for(entry);
    os << "| " << entry.total_wires;
    if (knee && entry.point_index == knee->point_index) {
      os << " **(knee)**";
    }
    os << " | " << point.data_pins << " | "
       << entry.worst_case_clocks << " | " << point.limiting_process
       << " | " << protocol_short_name(point.point.protocol) << " | "
       << point.point.width << " | " << point.grouping_name << " | ";
    if (!point.validated) {
      os << "-";
    } else if (!point.sim_ok) {
      os << "sim FAILED";
    } else {
      os << (point.equivalent ? "equivalent" : "NOT equivalent") << ", t="
         << point.simulated_clocks;
    }
    os << " |\n";
  }
  os << "\n";
  if (knee) {
    const PointResult& point = result.result_for(*knee);
    os << "Knee point: **" << point.data_pins
       << " pins** (grouping " << point.grouping_name << ", "
       << protocol_short_name(point.point.protocol) << " handshake, "
       << knee->total_wires << " total wires) reaches the clock minimum of "
       << knee->worst_case_clocks
       << "; wider buses buy no further speedup.\n";
  }
  render_metrics_markdown(os, result.metrics);
  return os.str();
}

std::string render_exploration_json(const spec::System& system,
                                    const ExploreOptions& options,
                                    const ExplorationResult& result) {
  (void)options;
  std::ostringstream os;
  os << "{\n";
  os << "  \"system\": " << json_quote(system.name()) << ",\n";
  os << "  \"stats\": {"
     << "\"total\": " << result.stats.total_points
     << ", \"pruned\": " << result.stats.pruned_points
     << ", \"evaluated\": " << result.stats.evaluated_points
     << ", \"feasible\": " << result.stats.feasible_points
     << ", \"candidates\": " << result.stats.candidate_points
     << ", \"validated\": " << result.stats.validated_points
     << ", \"cache_hits\": " << result.stats.cache_hits
     << ", \"cache_misses\": " << result.stats.cache_misses << "},\n";

  // Deterministic section only — the JSON report carries the same
  // byte-identity guarantee as the markdown one.
  std::string metrics_json = result.metrics.deterministic_json();
  while (!metrics_json.empty() && metrics_json.back() == '\n') {
    metrics_json.pop_back();
  }
  os << "  \"metrics\": " << metrics_json << ",\n";

  const ParetoEntry* knee = result.front.knee();
  os << "  \"front\": [\n";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    const ParetoEntry& entry = result.front.entries()[i];
    const PointResult& point = result.result_for(entry);
    os << "    {\"wires\": " << entry.total_wires
       << ", \"data_pins\": " << point.data_pins
       << ", \"clocks\": " << entry.worst_case_clocks
       << ", \"width\": " << point.point.width << ", \"protocol\": \""
       << protocol_short_name(point.point.protocol) << "\", \"grouping\": "
       << json_quote(point.grouping_name) << ", \"knee\": "
       << ((knee && entry.point_index == knee->point_index) ? "true"
                                                            : "false");
    if (point.validated) {
      os << ", \"sim_ok\": " << (point.sim_ok ? "true" : "false")
         << ", \"equivalent\": " << (point.equivalent ? "true" : "false")
         << ", \"simulated_clocks\": " << point.simulated_clocks;
    }
    os << "}" << (i + 1 < result.front.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& point = result.points[i];
    os << "    {\"index\": " << point.point.index << ", \"grouping\": "
       << json_quote(point.grouping_name) << ", \"width\": "
       << point.point.width << ", \"protocol\": \""
       << protocol_short_name(point.point.protocol) << "\", \"pruned\": "
       << (point.pruned ? "true" : "false")
       << ", \"feasible\": " << (point.feasible ? "true" : "false")
       << ", \"meets_constraints\": "
       << (point.meets_constraints ? "true" : "false");
    if (!point.pruned) {
      os << ", \"wires\": " << point.total_wires
         << ", \"clocks\": " << point.worst_case_clocks
         << ", \"limiting_process\": "
         << json_quote(point.limiting_process);
    }
    os << "}" << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace ifsyn::explore
