#include "check/trace_miner.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "check/protocol_fsm.hpp"
#include "estimate/rate_model.hpp"
#include "protocol/protocol_generator.hpp"

namespace ifsyn::check {

using namespace spec;

const char* disagreement_kind_name(DisagreementKind kind) {
  switch (kind) {
    case DisagreementKind::kMissingEvent: return "missing_event";
    case DisagreementKind::kReorderedEdge: return "reordered_edge";
    case DisagreementKind::kExtraToggle: return "extra_toggle";
    case DisagreementKind::kDelayDrift: return "delay_drift";
    case DisagreementKind::kUnattributable: return "unattributable";
  }
  return "unknown";
}

std::string Disagreement::to_string() const {
  std::ostringstream os;
  os << "conform." << disagreement_kind_name(kind) << " " << bus;
  if (!channel.empty()) os << "/" << channel;
  os << " " << signal << "@" << time << "." << delta << ": " << detail;
  return os.str();
}

std::string ConformanceReport::to_string() const {
  std::string out;
  for (const Disagreement& d : disagreements) {
    if (!out.empty()) out += "\n";
    out += d.to_string();
  }
  for (const SkippedLane& s : skipped) {
    if (!out.empty()) out += "\n";
    out += "conform.skipped " + s.bus + ": " + s.reason;
  }
  return out;
}

namespace {

/// One committed change on the mined lane, projected out of the kernel
/// trace. `uvalue` is only meaningful for control/ID fields (DATA words
/// can be wider than 64 bits and are matched by presence, not value).
struct ObservedEdge {
  std::uint64_t time = 0;
  std::uint64_t delta = 0;
  std::string field;
  bool is_data = false;
  std::uint64_t uvalue = 0;
};

struct Miner {
  const System& system;
  ConformanceReport& report;
  const obs::ObsContext& obs;

  void count(const char* name, std::uint64_t n = 1) {
    if (obs.metrics) obs.metrics->counter(name).add(n);
  }

  void skip(const std::string& bus, std::string reason) {
    report.skipped.push_back(SkippedLane{bus, std::move(reason)});
  }

  void disagree(DisagreementKind kind, const BusGroup& bus,
                const Channel* channel, std::uint64_t time,
                std::uint64_t delta, const std::string& signal,
                const std::string& field, std::string detail) {
    Disagreement d;
    d.kind = kind;
    d.bus = bus.name;
    if (channel) d.channel = channel->name;
    d.time = time;
    d.delta = delta;
    d.signal = field.empty() ? signal : signal + "." + field;
    d.detail = std::move(detail);
    report.disagreements.push_back(std::move(d));
  }

  /// Match one transaction's expected edges against the observed stream
  /// starting at `pos`. Returns true when the transaction fully matched
  /// (`pos` advanced past its edges); false when a disagreement was
  /// recorded (mining of the lane must stop).
  bool match_transaction(const BusGroup& bus, const Channel& channel,
                         const std::string& signal,
                         const std::vector<TimedEdge>& expected,
                         const std::vector<ObservedEdge>& stream,
                         std::size_t& pos) {
    const std::uint64_t t0 = stream[pos].time;
    // Instants whose expected DATA drive went unconsumed (value-repeat
    // words commit nothing): a DATA edge observed at such an instant
    // *after* its word's control edge is the reordered-drive signature.
    std::set<std::uint64_t> skipped_drive_times;

    std::size_t e = 0;
    while (e < expected.size()) {
      const TimedEdge& exp = expected[e];
      const std::uint64_t want_time =
          t0 + static_cast<std::uint64_t>(exp.rel);

      if (pos >= stream.size()) {
        if (exp.data) {  // a repeated word's silent commit
          ++e;
          continue;
        }
        const ObservedEdge& last = stream.back();
        disagree(DisagreementKind::kMissingEvent, bus, &channel, last.time,
                 last.delta, signal, exp.field,
                 "expected " + exp.field + "=" + std::to_string(exp.value) +
                     " at t=" + std::to_string(want_time) +
                     " but the trace ends (last edge at t=" +
                     std::to_string(last.time) + ")");
        return false;
      }

      const ObservedEdge& ob = stream[pos];
      if (exp.data) {
        if (ob.is_data && ob.time == want_time) {
          ++report.edges_checked;
          ++e;
          ++pos;
        } else {
          // No change committed: the word repeated the previous DATA
          // value. Remember the instant for reorder detection.
          skipped_drive_times.insert(want_time);
          ++e;
        }
        continue;
      }

      if (ob.is_data) {
        if (skipped_drive_times.count(ob.time)) {
          disagree(DisagreementKind::kReorderedEdge, bus, &channel, ob.time,
                   ob.delta, signal, "DATA",
                   "DATA committed after the control edge of its word; the "
                   "generated sender drives DATA first");
          return false;
        }
        // A time-shifted word commits DATA and its control edge together
        // at the wrong instant; when the very next observed edge is the
        // control edge this expected one describes, let the control
        // comparison carry the verdict (delay drift, not extra data).
        if (pos + 1 < stream.size()) {
          const ObservedEdge& next = stream[pos + 1];
          if (!next.is_data && next.field == exp.field &&
              next.uvalue == exp.value) {
            ++pos;  // the word's displaced drive
            continue;
          }
        }
        disagree(DisagreementKind::kExtraToggle, bus, &channel, ob.time,
                 ob.delta, signal, "DATA",
                 "DATA change with no corresponding word drive at t=" +
                     std::to_string(ob.time));
        return false;
      }

      if (ob.field == exp.field && ob.uvalue == exp.value) {
        if (ob.time != want_time) {
          disagree(DisagreementKind::kDelayDrift, bus, &channel, ob.time,
                   ob.delta, signal, exp.field,
                   exp.field + "=" + std::to_string(exp.value) +
                       " observed at t=" + std::to_string(ob.time) +
                       ", statically expected at t=" +
                       std::to_string(want_time));
          return false;
        }
        ++report.edges_checked;
        ++e;
        ++pos;
        continue;
      }

      // Head mismatch: classify by looking for each head further down
      // the other sequence (bounded scans; classification only).
      bool expected_found_later = false;
      const std::size_t scan_end = std::min(stream.size(), pos + 64);
      for (std::size_t i = pos + 1; i < scan_end; ++i) {
        if (!stream[i].is_data && stream[i].field == exp.field &&
            stream[i].uvalue == exp.value) {
          expected_found_later = true;
          break;
        }
      }
      bool observed_expected_later = false;
      for (std::size_t j = e + 1; j < expected.size(); ++j) {
        if (!expected[j].data && expected[j].field == ob.field &&
            expected[j].value == ob.uvalue) {
          observed_expected_later = true;
          break;
        }
      }
      if (observed_expected_later && expected_found_later) {
        disagree(DisagreementKind::kReorderedEdge, bus, &channel, ob.time,
                 ob.delta, signal, ob.field,
                 ob.field + "=" + std::to_string(ob.uvalue) +
                     " arrived before " + exp.field + "=" +
                     std::to_string(exp.value) +
                     "; the static automaton orders them the other way");
        return false;
      }
      if (!observed_expected_later) {
        disagree(DisagreementKind::kExtraToggle, bus, &channel, ob.time,
                 ob.delta, signal, ob.field,
                 ob.field + "=" + std::to_string(ob.uvalue) +
                     " is not part of this transaction's automaton");
        return false;
      }
      disagree(DisagreementKind::kMissingEvent, bus, &channel, ob.time,
               ob.delta, signal, exp.field,
               "expected " + exp.field + "=" + std::to_string(exp.value) +
                   " at t=" + std::to_string(want_time) + " but observed " +
                   ob.field + "=" + std::to_string(ob.uvalue));
      return false;
    }
    return true;
  }

  /// Mine one lane: a serialized sequence of transactions on `signal`.
  /// `traffic` lists the lane's channels, in `channels` order.
  void mine_lane(const BusGroup& bus, const std::string& signal,
                 const std::vector<const Channel*>& channels,
                 const std::vector<ChannelTraffic*>& traffic,
                 const std::vector<ObservedEdge>& stream) {
    std::vector<ChannelFsm> fsms;
    for (const Channel* ch : channels) {
      ChannelFsm fsm = extract_channel(system, bus, *ch);
      if (!fsm.requester || !fsm.server) {
        skip(bus.name, "channel " + ch->name +
                           " lacks a generated requester/server pair");
        return;
      }
      if (!fsm.supported()) {
        skip(bus.name, fsm.why_unsupported());
        return;
      }
      fsms.push_back(std::move(fsm));
    }
    ++report.lanes_mined;

    WireState wires;  // kernel-initialized to zero
    // Instant (absolute) until which each server process is still
    // draining its previous transaction's epilogue. One server process
    // per served variable; a request that lands while it is busy gets
    // its response shifted by the remainder.
    std::map<std::string, std::uint64_t> server_busy;
    std::vector<TimedEdge> expected;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      // Attribute the transaction: ID edges of its first instant apply
      // before the carried value is read, whatever their storage order.
      std::uint64_t effective_id = wires.value("ID");
      for (std::size_t i = pos;
           i < stream.size() && stream[i].time == stream[pos].time; ++i) {
        if (stream[i].field == "ID") {
          effective_id = stream[i].uvalue;
          break;
        }
      }
      std::size_t k = 0;
      if (fsms.size() > 1) {
        while (k < channels.size() &&
               static_cast<std::uint64_t>(channels[k]->id) != effective_id) {
          ++k;
        }
      }
      if (k == channels.size()) {
        disagree(DisagreementKind::kUnattributable, bus, nullptr,
                 stream[pos].time, stream[pos].delta, signal, "ID",
                 "traffic under ID=" + std::to_string(effective_id) +
                     " matches no channel of this bus");
        return;
      }
      const Channel& channel = *channels[k];
      const ChannelFsm& fsm = fsms[k];

      const std::uint64_t t0 = stream[pos].time;
      const std::uint64_t busy = server_busy[channel.variable];
      const long long server_lag =
          busy > t0 ? static_cast<long long>(busy - t0) : 0;

      // Replay through the checker's timed run; on any failure mining of
      // the lane stops, so `wires` may advance in place.
      expected.clear();
      const ComposeOutcome replay =
          compose_timed(fsm.req.events, fsm.srv.events, &wires, server_lag,
                        &expected);
      if (!replay.completed) {
        skip(bus.name,
             "channel " + channel.name + ": " +
                 (replay.budget_exhausted
                      ? "replay step budget exhausted"
                      : "replay deadlocked (static composition should "
                        "have caught this)"));
        return;
      }
      if (!match_transaction(bus, channel, signal, expected, stream, pos)) {
        return;
      }
      server_busy[channel.variable] =
          t0 + static_cast<std::uint64_t>(replay.b_finish);
      ++report.transactions_mined;
      ChannelTraffic& ct = *traffic[k];
      ++ct.transactions;
      for (const TimedEdge& edge : expected) {
        if (edge.data) {
          ct.word_times.push_back(t0 + static_cast<std::uint64_t>(edge.rel));
        }
      }
    }
  }

  void run(const std::vector<sim::TraceEntry>& trace) {
    for (const auto& bus : system.buses()) {
      if (!is_refined(system, *bus)) continue;

      std::vector<const Channel*> channels;
      for (const std::string& name : bus->channel_names) {
        if (const Channel* ch = system.find_channel(name)) {
          channels.push_back(ch);
        }
      }
      if (channels.empty()) continue;
      // Every channel, in ID order (protocol generation assigns IDs in
      // channel order).
      BusTraffic& traffic = report.traffic.emplace_back();
      traffic.bus = bus->name;
      traffic.cycles_per_word =
          estimate::protocol_timing(bus->protocol, bus->fixed_delay_cycles)
              .cycles_per_word;
      for (const Channel* ch : channels) {
        traffic.channels.push_back(ChannelTraffic{ch->name, 0, {}});
      }

      if (bus->protocol != ProtocolKind::kHardwiredPort &&
          channels.size() > 1 && !bus->arbitrated) {
        std::set<std::string> masters;
        for (const Channel* ch : channels) masters.insert(ch->accessor);
        if (masters.size() > 1) {
          skip(bus->name,
               "multiple un-arbitrated masters share the bus; their "
               "transactions may legitimately interleave, so serialized "
               "mining would be unsound (synthesize with arbitration to "
               "mine this bus)");
          continue;
        }
      }

      // Lane split: hardwired ports give every channel its own signal;
      // every other protocol shares the bus record.
      struct Lane {
        std::string signal;
        std::vector<const Channel*> channels;
        std::vector<ChannelTraffic*> traffic;
      };
      std::vector<Lane> lanes;
      for (std::size_t i = 0; i < channels.size(); ++i) {
        const std::string signal =
            protocol::ProtocolGenerator::wire_context(*bus, *channels[i]).bus;
        if (lanes.empty() || lanes.back().signal != signal) {
          lanes.push_back(Lane{signal, {}, {}});
        }
        lanes.back().channels.push_back(channels[i]);
        lanes.back().traffic.push_back(&traffic.channels[i]);
      }
      traffic.lanes = static_cast<int>(lanes.size());

      for (const Lane& lane : lanes) {
        std::vector<ObservedEdge> stream;
        for (const sim::TraceEntry& entry : trace) {
          if (entry.key.signal != lane.signal) continue;
          ObservedEdge edge;
          edge.time = entry.time;
          edge.delta = entry.delta;
          edge.field = entry.key.field;
          edge.is_data = entry.key.field == "DATA";
          if (!edge.is_data) edge.uvalue = entry.value.to_uint();
          stream.push_back(std::move(edge));
        }
        if (stream.empty()) continue;  // no traffic: nothing to mine
        mine_lane(*bus, lane.signal, lane.channels, lane.traffic, stream);
      }
    }

    count("check.conform.transactions",
          static_cast<std::uint64_t>(report.transactions_mined));
    count("check.conform.edges",
          static_cast<std::uint64_t>(report.edges_checked));
    count("check.conform.disagreements",
          static_cast<std::uint64_t>(report.disagreements.size()));
  }
};

}  // namespace

ConformanceReport mine_and_diff(const System& system,
                                const std::vector<sim::TraceEntry>& trace,
                                const obs::ObsContext& obs) {
  ConformanceReport report;
  Miner miner{system, report, obs};
  miner.run(trace);
  return report;
}

}  // namespace ifsyn::check
