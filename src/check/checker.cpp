#include "check/checker.hpp"

#include <algorithm>
#include <cmath>

#include "check/protocol_fsm.hpp"
#include "estimate/performance_estimator.hpp"
#include "estimate/rate_model.hpp"
#include "protocol/protocol_generator.hpp"
#include "protocol/protocol_library.hpp"

namespace ifsyn::check {

using namespace spec;

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = severity_name(severity);
  out += " [";
  out += code;
  out += "] ";
  out += subject;
  out += ": ";
  out += message;
  return out;
}

int CheckReport::errors() const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

int CheckReport::warnings() const {
  return static_cast<int>(diagnostics.size()) - errors();
}

std::string CheckReport::to_string() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    if (!out.empty()) out += "\n";
    out += d.to_string();
  }
  return out;
}

namespace {

struct Checker {
  const System& system;
  const CheckOptions& options;
  const obs::ObsContext& obs;
  CheckReport report;

  void diag(Severity severity, std::string code, std::string subject,
            std::string message) {
    report.diagnostics.push_back(Diagnostic{severity, std::move(code),
                                            std::move(subject),
                                            std::move(message)});
  }
  void error(std::string code, std::string subject, std::string message) {
    diag(Severity::kError, std::move(code), std::move(subject),
         std::move(message));
  }
  void warning(std::string code, std::string subject, std::string message) {
    diag(Severity::kWarning, std::move(code), std::move(subject),
         std::move(message));
  }

  void count(const char* name, std::uint64_t n = 1) {
    if (obs.metrics) obs.metrics->counter(name).add(n);
  }

  // ---- structural invariants -----------------------------------------

  void check_ids(const BusGroup& bus,
                 const std::vector<const Channel*>& channels) {
    if (bus.protocol == ProtocolKind::kHardwiredPort) return;
    if (bus.id_bits == 0 && channels.size() > 1) {
      error("structural.id_bits_missing", bus.name,
            std::to_string(channels.size()) +
                " channels share the bus but it has no ID field");
    }
    std::vector<int> seen;
    for (const Channel* ch : channels) {
      const std::string subject = bus.name + "/" + ch->name;
      if (ch->id < 0) {
        error("structural.id_unassigned", subject,
              "channel has no assigned ID");
        continue;
      }
      if (bus.id_bits > 0 && bus.id_bits < 63 &&
          ch->id >= (1LL << bus.id_bits)) {
        error("structural.id_overflow", subject,
              "ID " + std::to_string(ch->id) + " does not fit in " +
                  std::to_string(bus.id_bits) + " ID bits");
      }
      if (std::find(seen.begin(), seen.end(), ch->id) != seen.end()) {
        error("structural.duplicate_id", subject,
              "ID " + std::to_string(ch->id) +
                  " is already used by another channel of this bus");
      }
      seen.push_back(ch->id);
    }
  }

  void check_signal_shape(const BusGroup& bus,
                          const std::vector<const Channel*>& channels) {
    const protocol::ProtocolSignals sigs =
        protocol::protocol_signals(bus.protocol);
    int expected_control = 0;
    for (const auto& f : sigs.control_fields) expected_control += f.width;
    if (bus.control_lines != expected_control) {
      error("structural.control_lines", bus.name,
            "bus records " + std::to_string(bus.control_lines) +
                " control lines but " +
                protocol_kind_name(bus.protocol) + " uses " +
                std::to_string(expected_control));
    }
    if (bus.protocol == ProtocolKind::kFixedDelay &&
        bus.fixed_delay_cycles < 1) {
      error("structural.fixed_delay", bus.name,
            "fixed-delay protocol with fixed_delay_cycles = " +
                std::to_string(bus.fixed_delay_cycles));
    }

    auto check_fields = [&](const Signal& signal, int data_width,
                            int id_bits) {
      for (const auto& f : sigs.control_fields) {
        const SignalField* field = signal.field(f.name);
        if (!field) {
          error("structural.missing_control_field", signal.name,
                "signal lacks control field " + f.name);
        } else if (field->width != f.width) {
          error("structural.control_field_width", signal.name,
                "field " + f.name + " is " + std::to_string(field->width) +
                    " bits, protocol needs " + std::to_string(f.width));
        }
      }
      if (id_bits > 0) {
        const SignalField* id = signal.field("ID");
        if (!id) {
          error("structural.missing_id_field", signal.name,
                "bus has id_bits = " + std::to_string(id_bits) +
                    " but the signal has no ID field");
        } else if (id->width != id_bits) {
          error("structural.id_field_width", signal.name,
                "ID field is " + std::to_string(id->width) +
                    " bits, bus records " + std::to_string(id_bits));
        }
      }
      const SignalField* data = signal.field("DATA");
      if (!data) {
        error("structural.missing_data_field", signal.name,
              "signal has no DATA field");
      } else if (data->width != data_width) {
        error("structural.data_width", signal.name,
              "DATA is " + std::to_string(data->width) +
                  " bits, expected " + std::to_string(data_width));
      }
    };

    if (bus.protocol == ProtocolKind::kHardwiredPort) {
      int total = 0;
      for (const Channel* ch : channels) {
        const std::string port_name =
            protocol::ProtocolGenerator::hardwired_signal_name(bus, *ch);
        const int want = protocol::hardwired_width(*ch);
        total += want;
        const Signal* port = system.find_signal(port_name);
        if (!port) {
          error("structural.missing_bus_signal", bus.name + "/" + ch->name,
                "hardwired port signal " + port_name + " does not exist");
          continue;
        }
        check_fields(*port, want, /*id_bits=*/0);
      }
      if (bus.width != total) {
        error("structural.width_mismatch", bus.name,
              "group width " + std::to_string(bus.width) +
                  " != sum of hardwired port widths " +
                  std::to_string(total));
      }
    } else {
      const Signal* record = system.find_signal(bus.name);
      if (!record) {
        error("structural.missing_bus_signal", bus.name,
              "bus record signal does not exist");
        return;
      }
      check_fields(*record, bus.width, bus.id_bits);
    }
  }

  // ---- protocol FSM checks -------------------------------------------

  void check_word_counts(const Channel& ch, const std::string& subject,
                         int width, const ExtractResult& req,
                         const ExtractResult& srv) {
    const estimate::TransactionWords want =
        estimate::transaction_words(ch, width);
    if (req.data_drives != want.drives || req.data_samples != want.samples) {
      error("fsm.word_count", subject,
            "requester moves " + std::to_string(req.data_drives) + "+" +
                std::to_string(req.data_samples) +
                " words (drive+sample), slicing arithmetic expects " +
                std::to_string(want.drives) + "+" +
                std::to_string(want.samples));
    }
    if (srv.data_drives != req.data_samples ||
        srv.data_samples != req.data_drives) {
      error("fsm.word_mismatch", subject,
            "server moves " + std::to_string(srv.data_drives) + "+" +
                std::to_string(srv.data_samples) +
                " words (drive+sample); not complementary to the "
                "requester's " +
                std::to_string(req.data_drives) + "+" +
                std::to_string(req.data_samples));
    }
  }

  void check_hold_cycles(const protocol::WireContext& wires,
                         const std::string& subject,
                         const ExtractResult& side, const char* role) {
    const long long h = wires.hold_cycles();
    for (const FsmEvent& ev : side.events) {
      if (ev.kind != EventKind::kDelay) continue;
      if (ev.cycles == h || ev.cycles == 2 * h) continue;
      error("fsm.hold_cycles", subject,
            std::string(role) + " holds for " + std::to_string(ev.cycles) +
                " cycles; the bus's per-word delay is " + std::to_string(h) +
                " (turnaround " + std::to_string(2 * h) + ")");
      return;  // one diagnostic per side is enough
    }
  }

  void check_channel_fsm(const BusGroup& bus, const Channel& ch) {
    const std::string subject = bus.name + "/" + ch.name;
    const ChannelFsm fsm = extract_channel(system, bus, ch);
    if (!fsm.requester || !fsm.server) {
      error("structural.missing_procedure", subject,
            std::string(!fsm.requester ? "requester" : "server") +
                " procedure was not generated");
      return;
    }
    if (!fsm.supported()) {
      warning("fsm.unsupported", subject, fsm.why_unsupported());
      return;
    }
    count("check.channels_checked");

    const ExtractResult& req = fsm.req;
    const ExtractResult& srv = fsm.srv;
    check_word_counts(ch, subject, fsm.wires.width, req, srv);
    check_hold_cycles(fsm.wires, subject, req, fsm.requester->name.c_str());
    check_hold_cycles(fsm.wires, subject, srv, fsm.server->name.c_str());

    const bool handshake = bus.protocol == ProtocolKind::kFullHandshake ||
                           bus.protocol == ProtocolKind::kHardwiredPort;
    const ComposeOutcome outcome =
        handshake
            ? compose_interleaved(req.events, srv.events)
            : compose_timed(req.events, srv.events);
    count("check.fsm_compositions");
    count("check.fsm_states_explored",
          static_cast<std::uint64_t>(outcome.states_explored));

    if (outcome.deadlock) {
      error("fsm.deadlock", subject,
            std::string(handshake ? "a reachable interleaving of "
                                  : "the timed composition of ") +
                fsm.requester->name + " and " + fsm.server->name +
                " deadlocks: " + outcome.detail);
      return;
    }
    if (outcome.budget_exhausted) {
      warning("fsm.budget", subject,
              "composition budget exhausted before an answer (" +
                  outcome.detail + ")");
      return;
    }
    if (!outcome.final_nonzero_wires.empty()) {
      std::string held;
      for (const WireCond& w : outcome.final_nonzero_wires) {
        if (!held.empty()) held += ", ";
        held += w.field + "=" + std::to_string(w.value);
      }
      error("fsm.control_not_released", subject,
            "transaction can complete with control wires still asserted (" +
                held + "); the next transaction would misfire");
    }
  }

  // ---- rate feasibility (Eq. 1 re-check) -----------------------------

  void check_rates(const BusGroup& bus,
                   const std::vector<const Channel*>& channels) {
    if (bus.protocol == ProtocolKind::kHardwiredPort || bus.width <= 0) {
      return;
    }
    // Only audit widths the generator itself selected: a caller-pinned
    // width (suite examples, width sweeps) is allowed to violate Eq. 1 on
    // purpose, but a generator-selected width that violates it means the
    // rate model and the selection loop have drifted apart -- exactly the
    // fixed-delay default bug this checker exists to catch.
    if (!bus.width_from_generator) return;
    estimate::PerformanceEstimator estimator(system);
    for (const auto& [process, cycles] : options.compute_cycles_override) {
      estimator.set_compute_cycles(process, cycles);
    }
    double demand = 0;
    bool any = false;
    for (const Channel* ch : channels) {
      if (ch->accesses <= 0) continue;  // unannotated; nothing to sum
      demand += estimator.average_rate(*ch, bus.width, bus.protocol,
                                       bus.fixed_delay_cycles);
      any = true;
    }
    if (!any) return;
    const double rate = estimate::bus_rate(bus.width, bus.protocol,
                                           bus.fixed_delay_cycles);
    if (rate + 1e-9 < demand) {
      warning("rate.infeasible", bus.name,
              "Eq. 1 violated at the generated configuration: bus rate " +
                  std::to_string(rate) + " bits/clock < total demand " +
                  std::to_string(demand) + " (width " +
                  std::to_string(bus.width) + ", " +
                  protocol_kind_name(bus.protocol) + ", delay " +
                  std::to_string(bus.fixed_delay_cycles) + ")");
    }
  }

  // ---- driver --------------------------------------------------------

  void run() {
    for (const auto& bus : system.buses()) {
      if (!is_refined(system, *bus)) continue;
      count("check.buses_checked");

      std::vector<const Channel*> channels;
      for (const std::string& name : bus->channel_names) {
        const Channel* ch = system.find_channel(name);
        if (!ch) {
          error("structural.missing_channel", bus->name + "/" + name,
                "bus group references a channel that does not exist");
          continue;
        }
        channels.push_back(ch);
      }

      check_ids(*bus, channels);
      check_signal_shape(*bus, channels);
      for (const Channel* ch : channels) check_channel_fsm(*bus, *ch);
      check_rates(*bus, channels);
    }

    count("check.diagnostics",
          static_cast<std::uint64_t>(report.diagnostics.size()));
    count("check.errors", static_cast<std::uint64_t>(report.errors()));
    count("check.warnings", static_cast<std::uint64_t>(report.warnings()));
  }
};

}  // namespace

CheckReport run_checks(const System& system, const CheckOptions& options,
                       const obs::ObsContext& obs) {
  Checker checker{system, options, obs, {}};
  checker.run();
  return std::move(checker.report);
}

std::map<std::string, long long> snapshot_compute_cycles(
    const System& system,
    const std::map<std::string, long long>& overrides) {
  estimate::PerformanceEstimator estimator(system);
  for (const auto& [process, cycles] : overrides) {
    estimator.set_compute_cycles(process, cycles);
  }
  std::map<std::string, long long> snapshot;
  for (const auto& process : system.processes()) {
    snapshot[process->name] = estimator.compute_cycles(process->name);
  }
  return snapshot;
}

}  // namespace ifsyn::check
