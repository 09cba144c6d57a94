// ifsyn/check/checker.hpp
//
// Static protocol checker (DESIGN.md Sec. 11): a post-synthesis verifier
// over a refined spec::System that re-derives what protocol generation
// *should* have produced and reports every mismatch as a structured
// diagnostic. Three pass families:
//
//   structural        -- channel IDs unique and representable in id_bits,
//                        control_lines consistent with protocol_signals(),
//                        bus record / hardwired port signal shapes, word
//                        counts of the generated procedures against the
//                        ceil(message/width) slicing arithmetic.
//   protocol FSM      -- extract each Send/Receive (requester) and Serve
//                        (server) pair as event FSMs and compose them
//                        (check/protocol_fsm.hpp): every START must meet
//                        its DONE, hold cycles must match the bus's
//                        fixed_delay_cycles, and no deadlock may be
//                        reachable. Errors.
//   rate feasibility  -- recompute Eq. 1 per shared bus with the correct
//                        per-protocol timing (the bug class that motivated
//                        this subsystem: fixed-delay buses priced at a
//                        defaulted delay). Audits generator-selected
//                        widths only (BusGroup::width_from_generator) --
//                        pinned widths and width sweeps violate Eq. 1 on
//                        purpose. Warnings. Because the default compute
//                        model reads process bodies, which protocol
//                        generation rewrites, callers must snapshot
//                        compute cycles *before* synthesis (see
//                        snapshot_compute_cycles) for the re-check to
//                        reproduce the generator's arithmetic exactly.
//
// `run_checks` never mutates the system. The synthesizer runs it after
// protocol generation and fails on any diagnostic (SynthesisOptions::
// run_checker); `ifsyn_tool check` prints the report; the fuzz harness
// asserts zero errors on every generated system.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/scoped_timer.hpp"
#include "spec/system.hpp"

namespace ifsyn::check {

enum class Severity {
  kError,    ///< the refined system is wrong; synthesis must not ship it
  kWarning,  ///< suspicious but possibly intended (e.g. pinned width
             ///< below the Eq. 1 floor), or a check that could not run
};

const char* severity_name(Severity severity);

/// One finding. `code` is a stable dotted identifier ("structural.
/// duplicate_id", "fsm.deadlock", "rate.infeasible", ...) so tests and
/// tooling can match findings without parsing prose; `subject` names the
/// bus/channel/procedure the finding is about.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;
  std::string subject;
  std::string message;

  std::string to_string() const;
};

struct CheckReport {
  std::vector<Diagnostic> diagnostics;

  int errors() const;
  int warnings() const;
  /// No diagnostics at all. The synthesizer gate and the tool's exit
  /// status use this (warnings included: a pinned-width rate violation
  /// should be visible, and --no-check exists for the deliberate case).
  bool clean() const { return diagnostics.empty(); }

  /// One line per diagnostic, "severity code subject: message".
  std::string to_string() const;
};

struct CheckOptions {
  /// Calibration overrides forwarded to the rate re-check, so a system
  /// synthesized with pinned compute cycles is re-checked under the same
  /// model it was sized with.
  std::map<std::string, long long> compute_cycles_override;
};

/// Run every pass over the refined buses of `system` (groups that
/// protocol generation has not touched yet are skipped). Exports
/// "check.*" counters through `obs` when a metrics registry is attached.
CheckReport run_checks(const spec::System& system,
                       const CheckOptions& options = {},
                       const obs::ObsContext& obs = {});

/// Compute cycles of every process under the default estimation model
/// (plus `overrides`), keyed by process name. Bus generation sizes buses
/// against this model, but protocol generation then rewrites the process
/// bodies it was derived from -- so take the snapshot *before* synthesis
/// and pass it as CheckOptions::compute_cycles_override to make the rate
/// re-check bit-reproduce the generator's Eq. 1 arithmetic. The
/// synthesizer's own P6 gate does this internally.
std::map<std::string, long long> snapshot_compute_cycles(
    const spec::System& system,
    const std::map<std::string, long long>& overrides = {});

}  // namespace ifsyn::check
