#include "check/protocol_fsm.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "protocol/procedure_synthesis.hpp"
#include "protocol/protocol_generator.hpp"
#include "spec/expr.hpp"

namespace ifsyn::check {

using namespace spec;

namespace {

/// Budget for one composition: states for an interleaved (handshake)
/// composition, steps for a timed run.
constexpr long long kFsmBudget = 1 << 20;

/// Loop-variable environment for constant folding of the generated index
/// arithmetic (word parities `J mod 2`, slice bounds).
using Env = std::map<std::string, std::int64_t>;

std::optional<std::int64_t> fold(const Expr& expr, const Env& env) {
  if (const auto* i = expr.as<IntLit>()) return i->value;
  if (const auto* b = expr.as<BitsLit>()) {
    return static_cast<std::int64_t>(b->value.to_uint());
  }
  if (const auto* v = expr.as<VarRef>()) {
    auto it = env.find(v->name);
    if (it == env.end()) return std::nullopt;
    return it->second;
  }
  if (const auto* u = expr.as<UnaryExpr>()) {
    auto x = fold(*u->operand, env);
    if (!x) return std::nullopt;
    switch (u->op) {
      case UnaryOp::kNeg: return -*x;
      case UnaryOp::kNot: return ~*x;
      case UnaryOp::kLogNot: return *x == 0 ? 1 : 0;
    }
    return std::nullopt;
  }
  if (const auto* b = expr.as<BinaryExpr>()) {
    auto l = fold(*b->lhs, env);
    auto r = fold(*b->rhs, env);
    if (!l || !r) return std::nullopt;
    switch (b->op) {
      case BinaryOp::kAdd: return *l + *r;
      case BinaryOp::kSub: return *l - *r;
      case BinaryOp::kMul: return *l * *r;
      case BinaryOp::kDiv: return *r == 0 ? std::nullopt
                                          : std::optional<std::int64_t>(*l / *r);
      case BinaryOp::kMod: return *r == 0 ? std::nullopt
                                          : std::optional<std::int64_t>(*l % *r);
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Does `expr` read any field of `bus` DATA anywhere in its tree?
bool reads_bus_data(const Expr& expr, const std::string& bus) {
  if (const auto* s = expr.as<SignalRef>()) {
    return s->signal == bus && s->field == "DATA";
  }
  if (const auto* u = expr.as<UnaryExpr>()) {
    return reads_bus_data(*u->operand, bus);
  }
  if (const auto* b = expr.as<BinaryExpr>()) {
    return reads_bus_data(*b->lhs, bus) || reads_bus_data(*b->rhs, bus);
  }
  if (const auto* s = expr.as<SliceExpr>()) {
    return reads_bus_data(*s->base, bus);
  }
  if (const auto* a = expr.as<ArrayRef>()) {
    return reads_bus_data(*a->index, bus);
  }
  return false;
}

struct Extractor {
  const std::string& bus;
  ExtractResult& out;
  long long event_budget = 100000;

  void fail(std::string why) {
    if (out.supported) {
      out.supported = false;
      out.why_unsupported = std::move(why);
    }
  }

  void push(FsmEvent ev) {
    if (static_cast<long long>(out.events.size()) >= event_budget) {
      fail("event budget exhausted (loop too large to unroll)");
      return;
    }
    out.events.push_back(std::move(ev));
  }

  /// Flatten a wait-until condition into (field == const) conjuncts.
  bool flatten_cond(const Expr& cond, const Env& env,
                    std::vector<WireCond>& conds) {
    if (const auto* b = cond.as<BinaryExpr>()) {
      if (b->op == BinaryOp::kLogAnd) {
        return flatten_cond(*b->lhs, env, conds) &&
               flatten_cond(*b->rhs, env, conds);
      }
      if (b->op == BinaryOp::kEq) {
        const auto* sref = b->lhs->as<SignalRef>();
        const Expr* rhs = b->rhs.get();
        if (!sref) {
          sref = b->rhs->as<SignalRef>();
          rhs = b->lhs.get();
        }
        if (!sref || sref->signal != bus) return false;
        auto v = fold(*rhs, env);
        if (!v) return false;
        conds.push_back(
            WireCond{sref->field, static_cast<std::uint64_t>(*v)});
        return true;
      }
    }
    return false;
  }

  void walk(const Block& block, Env& env) {
    for (const StmtPtr& stmt : block) {
      if (!out.supported) return;
      if (const auto* va = stmt->as<VarAssign>()) {
        if (va->value && reads_bus_data(*va->value, bus)) {
          FsmEvent ev;
          ev.kind = EventKind::kSampleData;
          push(std::move(ev));
          ++out.data_samples;
        }
        continue;  // plain variable traffic is not protocol behavior
      }
      if (const auto* sa = stmt->as<SignalAssign>()) {
        if (sa->signal != bus) continue;  // other buses: out of scope
        if (sa->field == "DATA") {
          FsmEvent ev;
          ev.kind = EventKind::kDriveData;
          push(std::move(ev));
          ++out.data_drives;
          continue;
        }
        auto v = fold(*sa->value, env);
        if (!v) {
          fail("non-constant value driven onto " + bus + "." + sa->field);
          return;
        }
        FsmEvent ev;
        ev.kind = EventKind::kAssignWire;
        ev.field = sa->field;
        ev.value = static_cast<std::uint64_t>(*v);
        push(std::move(ev));
        continue;
      }
      if (const auto* wu = stmt->as<WaitUntil>()) {
        FsmEvent ev;
        ev.kind = EventKind::kWaitWires;
        if (!flatten_cond(*wu->cond, env, ev.conds)) {
          fail("wait condition outside the generated subset: " +
               wu->cond->to_string());
          return;
        }
        push(std::move(ev));
        continue;
      }
      if (const auto* wf = stmt->as<WaitFor>()) {
        auto v = fold(*wf->cycles, env);
        if (!v || *v < 0) {
          fail("non-constant wait-for duration");
          return;
        }
        FsmEvent ev;
        ev.kind = EventKind::kDelay;
        ev.cycles = *v;
        push(std::move(ev));
        continue;
      }
      if (const auto* fs = stmt->as<ForStmt>()) {
        auto from = fold(*fs->from, env);
        auto to = fold(*fs->to, env);
        if (!from || !to) {
          fail("non-constant for-loop bounds");
          return;
        }
        if (*to - *from + 1 > 4096) {
          fail("for-loop trip count too large to unroll");
          return;
        }
        for (std::int64_t j = *from; j <= *to; ++j) {
          env[fs->var] = j;
          walk(fs->body, env);
          if (!out.supported) return;
        }
        env.erase(fs->var);
        continue;
      }
      if (stmt->as<BusLock>()) continue;  // arbitration is a non-goal here
      if (stmt->as<WaitOn>()) {
        fail("wait-on statement in generated procedure");
        return;
      }
      // IfStmt / WhileStmt / ForeverStmt / ProcCall never appear in
      // generated Send/Receive/Serve bodies.
      fail("statement outside the generated procedure subset");
      return;
    }
  }
};

bool conds_hold(const FsmEvent& ev, WireState& wires) {
  for (const WireCond& c : ev.conds) {
    if (wires.values[wires.index(c.field)] != c.value) return false;
  }
  return true;
}

/// Pre-register every field either side touches so wire indices are
/// stable before state hashing begins.
void register_wires(const std::vector<FsmEvent>& a,
                    const std::vector<FsmEvent>& b, WireState& w) {
  for (const auto* side : {&a, &b}) {
    for (const FsmEvent& ev : *side) {
      if (ev.kind == EventKind::kAssignWire) w.index(ev.field);
      for (const WireCond& c : ev.conds) w.index(c.field);
    }
  }
}

std::string describe_block(const std::vector<FsmEvent>& events, std::size_t pc,
                           const char* side) {
  if (pc >= events.size()) return std::string(side) + " completed";
  const FsmEvent& ev = events[pc];
  std::string out = std::string(side) + " blocked at event " +
                    std::to_string(pc) + " waiting for";
  for (const WireCond& c : ev.conds) {
    out += " " + c.field + "=" + std::to_string(c.value);
  }
  return out;
}

void record_nonzero(const WireState& wires, ComposeOutcome& out) {
  for (std::size_t i = 0; i < wires.names.size(); ++i) {
    if (wires.values[i] == 0) continue;
    // ID lines legitimately hold the last transaction's channel id.
    if (wires.names[i] == "ID") continue;
    const bool already =
        std::any_of(out.final_nonzero_wires.begin(),
                    out.final_nonzero_wires.end(),
                    [&](const WireCond& c) { return c.field == wires.names[i]; });
    if (!already) {
      out.final_nonzero_wires.push_back(
          WireCond{wires.names[i], wires.values[i]});
    }
  }
}

ExtractResult extract_events(const Block& body, const std::string& bus_signal) {
  ExtractResult out;
  Extractor ex{bus_signal, out};
  Env env;
  ex.walk(body, env);
  return out;
}

}  // namespace

bool is_refined(const System& system, const BusGroup& bus) {
  if (bus.channel_names.empty()) return false;
  const Channel* ch = system.find_channel(bus.channel_names.front());
  return ch && system.find_procedure(protocol::requester_proc_name(*ch));
}

std::string ChannelFsm::why_unsupported() const {
  return "cannot abstract " +
         (!req.supported ? requester->name + ": " + req.why_unsupported
                         : server->name + ": " + srv.why_unsupported);
}

ChannelFsm extract_channel(const System& system, const BusGroup& bus,
                           const Channel& channel) {
  ChannelFsm fsm;
  fsm.wires = protocol::ProtocolGenerator::wire_context(bus, channel);
  fsm.requester =
      system.find_procedure(protocol::requester_proc_name(channel));
  fsm.server = system.find_procedure(protocol::serve_proc_name(channel));
  if (fsm.requester && fsm.server) {
    fsm.req = extract_events(fsm.requester->body, fsm.wires.bus);
    fsm.srv = extract_events(fsm.server->body, fsm.wires.bus);
  }
  return fsm;
}

std::size_t WireState::index(const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  names.push_back(name);
  values.push_back(0);
  return names.size() - 1;
}

std::uint64_t WireState::value(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return values[i];
  }
  return 0;
}

ComposeOutcome compose_interleaved(const std::vector<FsmEvent>& a,
                                   const std::vector<FsmEvent>& b) {
  ComposeOutcome out;
  WireState wires;
  register_wires(a, b, wires);
  const std::size_t nw = wires.names.size();

  // A state is (pcA, pcB, wire values); wire values are folded into a
  // vector key. Depth-first exploration with an explicit stack.
  using State = std::vector<std::uint64_t>;  // [pcA, pcB, w0, w1, ...]
  auto make_state = [&](std::size_t pa, std::size_t pb) {
    State s(2 + nw);
    s[0] = pa;
    s[1] = pb;
    for (std::size_t i = 0; i < nw; ++i) s[2 + i] = wires.values[i];
    return s;
  };

  std::set<State> visited;
  std::vector<State> stack;
  stack.push_back(make_state(0, 0));

  while (!stack.empty()) {
    State s = std::move(stack.back());
    stack.pop_back();
    if (!visited.insert(s).second) continue;
    if (static_cast<long long>(visited.size()) > kFsmBudget) {
      out.budget_exhausted = true;
      out.detail = "state budget exhausted";
      out.states_explored = static_cast<long long>(visited.size());
      return out;
    }

    const std::size_t pa = static_cast<std::size_t>(s[0]);
    const std::size_t pb = static_cast<std::size_t>(s[1]);
    for (std::size_t i = 0; i < nw; ++i) wires.values[i] = s[2 + i];

    if (pa >= a.size() && pb >= b.size()) {
      record_nonzero(wires, out);
      out.completed = true;
      continue;
    }

    bool stepped = false;
    for (int side = 0; side < 2; ++side) {
      const std::vector<FsmEvent>& events = side == 0 ? a : b;
      const std::size_t pc = side == 0 ? pa : pb;
      if (pc >= events.size()) continue;
      const FsmEvent& ev = events[pc];
      if (ev.kind == EventKind::kWaitWires && !conds_hold(ev, wires)) {
        continue;
      }
      // Apply the event to a scratch copy of the wires.
      if (ev.kind == EventKind::kAssignWire) {
        const std::size_t idx = wires.index(ev.field);
        const std::uint64_t saved = wires.values[idx];
        wires.values[idx] = ev.value;
        stack.push_back(make_state(side == 0 ? pa + 1 : pa,
                                   side == 0 ? pb : pb + 1));
        wires.values[idx] = saved;
      } else {
        // Waits whose condition holds, delays, and data moves all just
        // advance the side's pc (delays are "may pass at any time" in
        // the untimed model).
        stack.push_back(make_state(side == 0 ? pa + 1 : pa,
                                   side == 0 ? pb : pb + 1));
      }
      stepped = true;
    }

    if (!stepped) {
      out.deadlock = true;
      out.detail = describe_block(a, pa, "requester") + "; " +
                   describe_block(b, pb, "server");
      out.states_explored = static_cast<long long>(visited.size());
      return out;
    }
  }

  out.states_explored = static_cast<long long>(visited.size());
  if (!out.completed && !out.budget_exhausted) {
    // No terminal state was reachable at all -- count it as deadlock.
    out.deadlock = true;
    out.detail = "no interleaving completes the transaction";
  }
  return out;
}

ComposeOutcome compose_timed(const std::vector<FsmEvent>& a,
                             const std::vector<FsmEvent>& b,
                             WireState* carried,
                             long long b_lag,
                             std::vector<TimedEdge>* edges) {
  ComposeOutcome out;
  WireState fresh;
  WireState& wires = carried ? *carried : fresh;
  register_wires(a, b, wires);

  struct Side {
    const std::vector<FsmEvent>* events;
    std::size_t pc = 0;
    long long ready = 0;   ///< simulated time the side may run again
    long long finish = 0;  ///< instant the side ran out of events

    bool done() const { return pc >= events->size(); }
  };
  Side sides[2] = {{&a}, {&b}};
  sides[1].ready = b_lag;
  sides[1].finish = b_lag;

  long long now = 0;
  long long steps = 0;
  while (!(sides[0].done() && sides[1].done())) {
    bool progressed = false;
    for (Side& side : sides) {
      const bool was_done = side.done();
      while (!side.done() && side.ready <= now) {
        if (++steps > kFsmBudget) {
          out.budget_exhausted = true;
          out.detail = "step budget exhausted";
          out.states_explored = steps;
          return out;
        }
        const FsmEvent& ev = (*side.events)[side.pc];
        if (ev.kind == EventKind::kWaitWires) {
          if (!conds_hold(ev, wires)) break;
          ++side.pc;
        } else if (ev.kind == EventKind::kDelay) {
          side.ready = now + ev.cycles;
          ++side.pc;
          progressed = true;
          if (ev.cycles > 0) break;
          continue;
        } else if (ev.kind == EventKind::kAssignWire) {
          // The kernel traces changes only, so only a change is an edge.
          std::uint64_t& value = wires.values[wires.index(ev.field)];
          if (value != ev.value) {
            value = ev.value;
            if (edges) edges->push_back({now, ev.field, ev.value, false});
          }
          ++side.pc;
        } else if (ev.kind == EventKind::kDriveData) {
          if (edges) edges->push_back({now, "DATA", 0, true});
          ++side.pc;
        } else {  // kSampleData: no wire activity
          ++side.pc;
        }
        progressed = true;
      }
      if (!was_done && side.done()) side.finish = std::max(now, side.ready);
    }
    if (progressed) continue;

    // No zero-time step ran anywhere: advance to the next pending delay.
    long long next = -1;
    for (const Side& side : sides) {
      if (side.done() || side.ready <= now) continue;
      if (next < 0 || side.ready < next) next = side.ready;
    }
    if (next < 0) {
      out.deadlock = true;
      out.detail = describe_block(a, sides[0].pc, "requester") + "; " +
                   describe_block(b, sides[1].pc, "server");
      out.states_explored = steps;
      return out;
    }
    now = next;
  }

  out.completed = true;
  out.states_explored = steps;
  out.b_finish = sides[1].finish;
  record_nonzero(wires, out);
  return out;
}

}  // namespace ifsyn::check
