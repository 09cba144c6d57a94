// ifsyn/check/protocol_fsm.hpp
//
// FSM extraction and composition for the protocol complementarity checks
// (DESIGN.md Sec. 11). A generated requester/server procedure pair is
// abstracted into two linear event sequences over the bus's control wires
// (literal for-loops unrolled, word parities folded with the loop index in
// scope), and the pair is then composed:
//
//   * handshake protocols (full handshake, hardwired port) claim to be
//     delay-insensitive, so the composition explores *every* interleaving
//     of the two sides (reachability over (pcA, pcB, wires)); a reachable
//     state where neither side can step and the transaction is unfinished
//     is a deadlock, e.g. a sender word missing its DONE wait.
//
//   * strobe protocols (half handshake, fixed delay) are only correct
//     under the documented timing discipline -- the receiver samples in
//     zero simulated time while the sender holds each word -- so the
//     composition is a deterministic timed run with exactly those
//     semantics: both sides drain their zero-time steps to quiescence
//     before time advances to the next pending delay.
//
// DATA movement is not simulated; word counts (drives/samples per side)
// are checked against the slicing arithmetic by the structural pass.
//
// The timed run is the one wire-level model of the generated protocols:
// the static checker composes each channel pair through it once, and the
// trace miner (check/trace_miner) replays every mined transaction through
// it to predict the edges the waveform must show.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "protocol/protocol_library.hpp"
#include "spec/stmt.hpp"
#include "spec/system.hpp"

namespace ifsyn::check {

enum class EventKind {
  kAssignWire,  ///< drive a control/ID field to a constant
  kWaitWires,   ///< block until every (field, value) condition holds
  kDelay,       ///< wait for a constant number of cycles
  kDriveData,   ///< present one word on DATA
  kSampleData,  ///< read one word from DATA
};

/// One (field == value) conjunct of a wait condition.
struct WireCond {
  std::string field;
  std::uint64_t value = 0;
};

struct FsmEvent {
  EventKind kind = EventKind::kAssignWire;
  std::string field;            ///< kAssignWire target
  std::uint64_t value = 0;      ///< kAssignWire value
  std::vector<WireCond> conds;  ///< kWaitWires conjuncts
  long long cycles = 0;         ///< kDelay duration
};

/// Result of abstracting one procedure body.
struct ExtractResult {
  bool supported = true;
  /// Why extraction bailed (construct outside the generated subset).
  std::string why_unsupported;
  std::vector<FsmEvent> events;
  long long data_drives = 0;   ///< kDriveData count
  long long data_samples = 0;  ///< kSampleData count
};

/// A bus group is refined once protocol generation has generated its
/// first channel's requester procedure. Width-only groups (bus generation
/// ran, protocol generation has not) are not, nor are groups still
/// waiting for both.
bool is_refined(const spec::System& system, const spec::BusGroup& bus);

/// A channel's generated requester/server pair, each body abstracted
/// relative to the signal the channel's traffic uses (ProtocolGenerator::
/// wire_context). Statements that do not touch that signal (parameter
/// marshalling, variable stores, bus locks) are skipped; constructs the
/// generator never emits (if/while, non-constant waits, dynamic loop
/// bounds) mark the side unsupported.
struct ChannelFsm {
  protocol::WireContext wires;
  const spec::Procedure* requester = nullptr;  ///< null when not generated
  const spec::Procedure* server = nullptr;     ///< null when not generated
  /// Extracted only when both procedures exist.
  ExtractResult req;
  ExtractResult srv;

  bool supported() const { return req.supported && srv.supported; }
  /// "cannot abstract <procedure>: <why>" for the first side outside the
  /// extractable subset.
  std::string why_unsupported() const;
};

ChannelFsm extract_channel(const spec::System& system,
                           const spec::BusGroup& bus,
                           const spec::Channel& channel);

/// Values of a composition's shared control/ID wires by field name. A
/// field never assigned reads 0 (the kernel initializes signals to zero).
struct WireState {
  std::vector<std::string> names;
  std::vector<std::uint64_t> values;

  /// Index of `name`, registered at 0 on first use.
  std::size_t index(const std::string& name);
  std::uint64_t value(const std::string& name) const;
};

/// One wire change a timed run commits, `rel` cycles after it started.
/// DATA drives carry no value: words are matched by presence.
struct TimedEdge {
  long long rel = 0;
  std::string field;
  std::uint64_t value = 0;
  bool data = false;
};

struct ComposeOutcome {
  bool completed = false;  ///< both sides ran to the end of their events
  bool deadlock = false;   ///< reachable state with no enabled step
  /// True when the exploration/step budget (1 << 20 states or steps) ran
  /// out before an answer.
  bool budget_exhausted = false;
  std::string detail;      ///< human-readable description of the failure
  long long states_explored = 0;
  /// Wire values when both sides completed (deterministic run) or wires
  /// seen nonzero in some completed terminal state (exploration).
  std::vector<WireCond> final_nonzero_wires;
  /// compose_timed only: the instant side B ran out of events.
  long long b_finish = 0;
};

/// Compose requester (side A) and server (side B) by exhaustive
/// interleaving -- the delay-insensitivity check for handshake protocols.
ComposeOutcome compose_interleaved(const std::vector<FsmEvent>& a,
                                   const std::vector<FsmEvent>& b);

/// Compose by deterministic timed run under strobe-discipline semantics
/// (receiver keeps up; zero-time steps drain, side A first, before time
/// advances to the next pending delay -- which is how the kernel
/// schedules the generated protocols). The trace miner replays one
/// transaction at a time and passes the extras: `wires` carries the
/// lane's wire state in and is left at the post-transaction state, side B
/// starts `b_lag` cycles in (a server still draining its previous
/// transaction), and `edges`, when given, receives every wire *change*
/// and every DATA drive.
ComposeOutcome compose_timed(const std::vector<FsmEvent>& a,
                             const std::vector<FsmEvent>& b,
                             WireState* wires = nullptr,
                             long long b_lag = 0,
                             std::vector<TimedEdge>* edges = nullptr);

}  // namespace ifsyn::check
