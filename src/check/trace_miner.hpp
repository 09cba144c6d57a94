// ifsyn/check/trace_miner.hpp
//
// Trace-mined protocol conformance (DESIGN.md Sec. 16): the dynamic half
// of the checker. Where check/protocol_fsm abstracts the *generated
// procedures* into event FSMs, this pass consumes the kernel's committed
// signal trace of a refined system actually running, segments it per
// bus/channel transaction, infers the observed protocol automaton, and
// diffs it against the statically extracted one.
//
// The two sides close a loop that each catches bugs the other cannot:
// the static FSM sees code the run never reached; the trace sees what
// the engines (AST walker, VM, optimizer) really committed to the
// wires. A disagreement means either protocol generation emitted
// something it did not claim, or an execution engine skewed the
// waveform -- both are bugs this report turns into test failures.
//
// Algorithm (Sec. 16 has the worked examples):
//
//   1. Lane split: a lane is the signal a channel's traffic uses
//      (ProtocolGenerator::wire_context): each refined shared bus is one
//      lane (its record signal); a hardwired-port group contributes one
//      lane per channel (its dedicated signal).
//   2. Expected-edge replay: per transaction, the channel's requester and
//      server FsmEvent sequences (check/protocol_fsm extraction) are
//      replayed through compose_timed -- the checker's own timed run --
//      against the lane's carried wire state. Every
//      control/ID assign that *changes* a wire becomes an expected edge
//      with a relative commit time (the kernel traces changes only);
//      DATA drives become optional edges (a repeated word commits
//      nothing).
//   3. Segmentation: transactions are serialized on a lane (single
//      master, or BusLock arbitration); the channel of the next
//      transaction is identified by the effective ID at its first
//      instant -- ID edges in that instant applied first, the carried
//      value otherwise (back-to-back transactions on one channel leave
//      ID unchanged, hence un-traced).
//   4. Matching: observed edges are consumed against expected edges in
//      order; the first disagreement on a lane is classified and mining
//      of that lane stops (downstream edges of a broken transaction are
//      cascade noise, not independent findings).
//
// Lanes whose FSMs cannot be extracted, and shared buses with multiple
// un-arbitrated masters (whose transactions legitimately interleave, so
// serialized mining would be unsound), are skipped and reported as such
// rather than guessed at.
//
// The matched transactions are also the measured bus traffic: the report
// records, per channel, how many transactions matched and the instant of
// every word they moved, which the CLI's --report renders as the
// "Measured bus traffic" section (core::render_traffic_markdown).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/scoped_timer.hpp"
#include "sim/kernel.hpp"
#include "spec/system.hpp"

namespace ifsyn::check {

/// Classification of one mined-vs-static disagreement.
enum class DisagreementKind {
  kMissingEvent,    ///< an expected wire edge never appeared on the trace
  kReorderedEdge,   ///< both edges appear, in the wrong order
  kExtraToggle,     ///< a wire edge the static automaton never produces
  kDelayDrift,      ///< right edge, wrong simulation time
  kUnattributable,  ///< traffic whose ID matches no channel of the bus
};

const char* disagreement_kind_name(DisagreementKind kind);

/// One disagreement, with wire-level provenance: the simulation instant
/// (time, delta) and the signal field it is anchored to.
struct Disagreement {
  DisagreementKind kind = DisagreementKind::kMissingEvent;
  std::string bus;      ///< bus group name
  std::string channel;  ///< attributed channel; empty when unattributable
  std::uint64_t time = 0;   ///< observed instant (or last instant seen)
  std::uint64_t delta = 0;  ///< delta of the anchoring trace entry
  std::string signal;   ///< wire, e.g. "B.START"
  std::string detail;   ///< human-readable expected-vs-observed story

  std::string to_string() const;
};

/// A lane the miner declined to mine, and why (extraction bailed,
/// un-arbitrated multi-master sharing, ...). Not a disagreement: the
/// static checker reports the underlying condition on its own terms.
struct SkippedLane {
  std::string bus;
  std::string reason;
};

/// One channel's traffic as mined: whole matched transactions only (a
/// cut-off transfer is a disagreement, not a partial count).
struct ChannelTraffic {
  std::string channel;
  long long transactions = 0;
  /// Instant of every word the matched transactions moved (t0 + rel of
  /// each expected DATA drive), in time order.
  std::vector<std::uint64_t> word_times;
};

/// Every channel of one refined bus the miner looked at, by channel ID.
struct BusTraffic {
  std::string bus;
  int cycles_per_word = 0;  ///< Eq. 2 timing of the bus's protocol
  int lanes = 1;  ///< signals it spreads over (hardwired: one per channel)
  std::vector<ChannelTraffic> channels;
};

struct ConformanceReport {
  std::vector<Disagreement> disagreements;
  std::vector<SkippedLane> skipped;
  /// One entry per refined bus with channels; a skipped or stopped bus
  /// keeps whatever matched before the miner gave up on it.
  std::vector<BusTraffic> traffic;
  long long transactions_mined = 0;
  long long edges_checked = 0;
  int lanes_mined = 0;

  bool clean() const { return disagreements.empty(); }
  /// One line per disagreement, then one per skipped lane.
  std::string to_string() const;
};

/// Mine `trace` (a Kernel::trace() of a simulated run of `system`) and
/// diff the observed automaton of every refined bus against the static
/// extraction. Buses protocol generation has not refined are ignored.
/// Exports "check.conform.*" counters when `obs` carries a registry.
ConformanceReport mine_and_diff(const spec::System& system,
                                const std::vector<sim::TraceEntry>& trace,
                                const obs::ObsContext& obs = {});

}  // namespace ifsyn::check
