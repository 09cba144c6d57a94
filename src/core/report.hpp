// ifsyn/core/report.hpp
//
// Human-readable synthesis report: one Markdown document collecting what
// the flow decided and why -- the channel inventory, every bus group's
// width exploration (Eq. 1 feasibility and cost per candidate), the
// generated wire budget and the co-simulation verdict. This is the
// artifact a designer would attach to a design review; serve's synth
// requests answer with it, and the CLI's --report appends the measured
// per-channel traffic the conformance miner reads off a traced run
// (render_traffic_markdown).
#pragma once

#include <optional>
#include <string>

#include "check/trace_miner.hpp"
#include "core/equivalence.hpp"
#include "core/interface_synthesizer.hpp"
#include "obs/metrics.hpp"
#include "spec/system.hpp"

namespace ifsyn::core {

struct ReportInputs {
  /// The refined system (after InterfaceSynthesizer::run).
  const spec::System* refined = nullptr;
  /// The synthesis report from the same run.
  const SynthesisReport* synthesis = nullptr;
  /// Optional co-simulation outcome.
  const EquivalenceReport* equivalence = nullptr;
  /// Optional metrics snapshot; only its deterministic section is
  /// rendered, so the report stays reproducible run to run.
  const obs::MetricsSnapshot* metrics = nullptr;
};

/// Render the report as Markdown. All inputs except `refined` and
/// `synthesis` are optional; sections for absent inputs are omitted.
std::string render_markdown_report(const ReportInputs& inputs);

/// The "Measured bus traffic" section: the transactions check::
/// mine_and_diff matched on a traced run that ended at `end_time`. A bus
/// the miner skipped or stopped on gets a heading naming why instead of
/// rows. Kept out of render_markdown_report: it needs an extra traced run
/// that only the CLI's --report pays for.
std::string render_traffic_markdown(const check::ConformanceReport& mined,
                                    std::uint64_t end_time);

}  // namespace ifsyn::core
