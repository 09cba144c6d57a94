#include "sim/interpreter.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/log.hpp"
#include "sim/bytecode/vm.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim {

using spec::Block;
using spec::Expr;
using spec::Stmt;

// Scalar and the shared operator semantics (extend / make_int / make_bool /
// eval_unary_op / eval_binary_op) live in sim/scalar.hpp, used verbatim by
// both this engine and the bytecode VM.

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kVm: return "vm";
    case Engine::kAst: return "ast";
  }
  return "vm";
}

Engine engine_from_env(std::string* bad_value) {
  if (bad_value) bad_value->clear();
  const char* env = std::getenv("IFSYN_SIM_ENGINE");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "vm") == 0) {
    return Engine::kVm;
  }
  if (std::strcmp(env, "ast") == 0) return Engine::kAst;
  // Unknown spelling: degrade to the portable default, but loudly —
  // setup() turns this into a structured warning naming both the bad
  // value and the engine actually chosen.
  if (bad_value) *bad_value = env;
  return Engine::kVm;
}

Interpreter::Interpreter(const spec::System& system, Kernel& kernel)
    : system_(system), kernel_(kernel) {
  engine_ = engine_from_env(&bad_engine_env_);
}

Interpreter::Interpreter(const spec::System& system, Kernel& kernel,
                         Engine engine)
    : system_(system), kernel_(kernel), engine_(engine) {
  // simulate() resolves its default engine through engine_from_env() and
  // lands here; re-probe so an unknown env spelling still gets its
  // warning — but only when the VM really is the engine in effect (an
  // explicit non-VM choice was not decided by the bad value).
  std::string bad;
  if (engine_from_env(&bad) == engine_ && engine_ == Engine::kVm) {
    bad_engine_env_ = std::move(bad);
  }
}

Interpreter::~Interpreter() = default;

Status Interpreter::setup() {
  IFSYN_RETURN_IF_ERROR(system_.validate());

  for (const auto& s : system_.signals()) {
    for (const auto& f : s->fields) {
      kernel_.add_signal_field(FieldKey{s->name, f.name},
                               BitVector(f.width));
    }
  }

  for (const auto& b : system_.buses()) {
    if (b->arbitrated) kernel_.add_bus_lock(b->name);
  }

  if (!bad_engine_env_.empty()) {
    if (obs::EventLog* log = kernel_.obs().log) {
      log->log(obs::Severity::kWarn, "sim",
               "unknown IFSYN_SIM_ENGINE value; using the bytecode VM",
               {{"value", bad_engine_env_}, {"engine", "vm"}});
    }
  }

  if (obs::MetricsRegistry* metrics = kernel_.obs().metrics) {
    // The engine in effect, next to where the opt level already appears;
    // wall-clock-classed for the same reason sim.vm.opt.level is.
    metrics->gauge("sim.engine", obs::Determinism::kWallClock)
        .set(static_cast<std::int64_t>(engine_));
  }

  if (engine_ == Engine::kVm) {
    // Compile-and-register path: the Vm owns global storage, compiled
    // programs and process registration; value_of/set_value delegate.
    vm_ = std::make_unique<bytecode::Vm>(system_, kernel_);
    vm_->setup();
    return Status::ok();
  }

  globals_.clear();
  for (const auto& v : system_.variables()) {
    globals_.emplace(v->name, v->init ? *v->init : spec::Value(v->type));
  }

  // Interning pre-pass: resolve every signal/bus reference in the spec to
  // its dense kernel id. Must run after the declarations above.
  signal_refs_.clear();
  assign_slots_.clear();
  wait_sets_.clear();
  bus_refs_.clear();
  for (const auto& p : system_.processes()) intern_block(p->body);
  for (const auto& pr : system_.procedures()) intern_block(pr->body);

  for (const auto& p : system_.processes()) {
    const spec::Process* proc = p.get();
    ProcState& state = proc_states_[proc->name];
    kernel_.add_process(
        proc->name,
        [this, proc, &state]() { return run_process(*proc, state); },
        proc->restarts);
  }
  return Status::ok();
}

// ---- elaboration-time interning -------------------------------------------

void Interpreter::intern_expr(const spec::Expr& expr) {
  using namespace spec;
  std::visit(
      [this](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, ArrayRef>) {
          intern_expr(*node.index);
        } else if constexpr (std::is_same_v<T, SliceExpr>) {
          intern_expr(*node.base);
          intern_expr(*node.hi);
          intern_expr(*node.lo);
        } else if constexpr (std::is_same_v<T, SignalRef>) {
          const SignalId id =
              kernel_.find_signal_id(FieldKey{node.signal, node.field});
          if (id != kInvalidSignalId) signal_refs_.emplace(&node, id);
        } else if constexpr (std::is_same_v<T, UnaryExpr>) {
          intern_expr(*node.operand);
        } else if constexpr (std::is_same_v<T, BinaryExpr>) {
          intern_expr(*node.lhs);
          intern_expr(*node.rhs);
        }
        // IntLit / BitsLit / VarRef: nothing to resolve.
      },
      expr.node());
}

void Interpreter::intern_lvalue(const spec::LValue& lv) {
  if (lv.index) intern_expr(*lv.index);
  if (lv.slice_hi) intern_expr(*lv.slice_hi);
  if (lv.slice_lo) intern_expr(*lv.slice_lo);
}

void Interpreter::intern_block(const spec::Block& block) {
  using namespace spec;
  for (const auto& stmt : block) {
    if (const auto* s = stmt->as<VarAssign>()) {
      intern_lvalue(s->target);
      intern_expr(*s->value);
    } else if (const auto* s = stmt->as<SignalAssign>()) {
      const SignalId id =
          kernel_.find_signal_id(FieldKey{s->signal, s->field});
      if (id != kInvalidSignalId) {
        assign_slots_.emplace(
            s, AssignSlot{id, kernel_.signal_value(id).width()});
      }
      intern_expr(*s->value);
    } else if (const auto* s = stmt->as<WaitUntil>()) {
      intern_expr(*s->cond);
    } else if (const auto* s = stmt->as<WaitOn>()) {
      // Unknown keys resolve to nothing: under the old scan they could
      // never match, so dropping them preserves never-wakes semantics.
      std::vector<SignalId> ids;
      ids.reserve(s->sensitivity.size());
      for (const auto& sf : s->sensitivity) {
        const SignalId id =
            sf.field.empty()
                ? kernel_.find_wildcard_id(sf.signal)
                : kernel_.find_signal_id(FieldKey{sf.signal, sf.field});
        if (id != kInvalidSignalId) ids.push_back(id);
      }
      wait_sets_.emplace(s, std::move(ids));
    } else if (const auto* s = stmt->as<WaitFor>()) {
      intern_expr(*s->cycles);
    } else if (const auto* s = stmt->as<IfStmt>()) {
      intern_expr(*s->cond);
      intern_block(s->then_body);
      intern_block(s->else_body);
    } else if (const auto* s = stmt->as<ForStmt>()) {
      intern_expr(*s->from);
      intern_expr(*s->to);
      intern_block(s->body);
    } else if (const auto* s = stmt->as<WhileStmt>()) {
      intern_expr(*s->cond);
      intern_block(s->body);
    } else if (const auto* s = stmt->as<ForeverStmt>()) {
      intern_block(s->body);
    } else if (const auto* s = stmt->as<ProcCall>()) {
      for (const auto& arg : s->args) {
        if (const auto* e = std::get_if<ExprPtr>(&arg)) {
          intern_expr(**e);
        } else {
          intern_lvalue(std::get<LValue>(arg));
        }
      }
    } else if (const auto* s = stmt->as<BusLock>()) {
      const BusId id = kernel_.find_bus_id(s->bus);
      if (id != kInvalidBusId) bus_refs_.emplace(s, id);
    }
  }
}

const spec::Value& Interpreter::value_of(const std::string& variable) const {
  if (vm_) return vm_->value_of(variable);
  auto it = globals_.find(variable);
  IFSYN_ASSERT_MSG(it != globals_.end(), "unknown variable " << variable);
  return it->second;
}

void Interpreter::set_value(const std::string& variable, spec::Value value) {
  if (vm_) {
    vm_->set_value(variable, std::move(value));
    return;
  }
  auto it = globals_.find(variable);
  IFSYN_ASSERT_MSG(it != globals_.end(), "unknown variable " << variable);
  IFSYN_ASSERT_MSG(it->second.type() == value.type(),
                   "type mismatch setting " << variable);
  it->second = std::move(value);
}

spec::Value* Interpreter::lookup(ProcState& state, const std::string& name) {
  if (!state.frames.empty()) {
    // innermost frame (current procedure / loop scope)
    auto& top = state.frames.back().vars;
    if (auto it = top.find(name); it != top.end()) return &it->second;
    // process locals
    auto& locals = state.frames.front().vars;
    if (auto it = locals.find(name); it != locals.end()) return &it->second;
  }
  if (auto it = globals_.find(name); it != globals_.end()) return &it->second;
  return nullptr;
}

spec::Value& Interpreter::lookup_or_fail(ProcState& state,
                                         const std::string& name) {
  spec::Value* v = lookup(state, name);
  IFSYN_ASSERT_MSG(v, "reference to undeclared variable '" << name << "'");
  return *v;
}

// ---- expression evaluation --------------------------------------------

std::int64_t Interpreter::eval_int(const Expr& expr, ProcState& state) {
  // Loop bounds, slice indices and wait durations are usually literals;
  // skip the Scalar round-trip (make_int(v).to_int() == v for any v).
  if (const auto* lit = std::get_if<spec::IntLit>(&expr.node())) {
    return lit->value;
  }
  return eval(expr, state).to_int();
}

// Dispatch is a get_if chain ordered by hot-loop frequency rather than
// std::visit: the chain is a handful of integer compares that the compiler
// inlines through, where the visit jump table costs an indirect call per
// evaluated node.
Scalar Interpreter::eval(const Expr& expr, ProcState& state) {
  using namespace spec;
  const auto& alt = expr.node();
  if (const auto* node = std::get_if<SignalRef>(&alt)) {
    if (const SignalId* id = signal_refs_.find(node)) {
      return Scalar{kernel_.signal_value(*id), false};
    }
    // Not interned: unknown at setup (or node outside the walked
    // spec); the name path asserts exactly as it always did.
    return Scalar{kernel_.signal_value(FieldKey{node->signal, node->field}),
                  false};
  }
  if (const auto* node = std::get_if<VarRef>(&alt)) {
    const Value& v = lookup_or_fail(state, node->name);
    IFSYN_ASSERT_MSG(!v.is_array(),
                     "array '" << node->name << "' used without an index");
    return Scalar{v.get(), v.type().is_signed()};
  }
  if (const auto* node = std::get_if<IntLit>(&alt)) {
    return make_int(node->value);
  }
  if (const auto* node = std::get_if<BinaryExpr>(&alt)) {
    const Scalar lhs = eval(*node->lhs, state);
    const Scalar rhs = eval(*node->rhs, state);
    return eval_binary_op(node->op, lhs, rhs);
  }
  if (const auto* node = std::get_if<UnaryExpr>(&alt)) {
    const Scalar operand = eval(*node->operand, state);
    return eval_unary_op(node->op, operand);
  }
  if (const auto* node = std::get_if<SliceExpr>(&alt)) {
    const Scalar base = eval(*node->base, state);
    const int hi = static_cast<int>(eval_int(*node->hi, state));
    const int lo = static_cast<int>(eval_int(*node->lo, state));
    return Scalar{base.bits.slice(hi, lo), false};
  }
  if (const auto* node = std::get_if<ArrayRef>(&alt)) {
    const std::int64_t index = eval_int(*node->index, state);
    const Value& v = lookup_or_fail(state, node->name);
    IFSYN_ASSERT_MSG(v.is_array(), "indexing non-array '" << node->name << "'");
    return Scalar{v.at(static_cast<int>(index)), v.type().is_signed()};
  }
  if (const auto* node = std::get_if<BitsLit>(&alt)) {
    return Scalar{node->value, false};
  }
  IFSYN_ASSERT(false);
  return Scalar{};
}

// ---- stores -------------------------------------------------------------

void Interpreter::store(ProcState& state, const spec::LValue& target,
                        Scalar value) {
  spec::Value& dest = lookup_or_fail(state, target.name);

  auto coerce = [&value](int width) {
    return extend(value, width);
  };

  if (target.index) {
    IFSYN_ASSERT_MSG(dest.is_array(),
                     "indexed store into non-array '" << target.name << "'");
    const int index = static_cast<int>(eval_int(*target.index, state));
    if (target.slice_hi) {
      BitVector elem = dest.at(index);
      const int hi = static_cast<int>(eval_int(*target.slice_hi, state));
      const int lo = static_cast<int>(eval_int(*target.slice_lo, state));
      elem.set_slice(hi, lo, coerce(hi - lo + 1));
      dest.set_at(index, std::move(elem));
    } else {
      dest.set_at(index, coerce(dest.type().scalar_width()));
    }
    return;
  }

  IFSYN_ASSERT_MSG(!dest.is_array(),
                   "whole-array assignment to '" << target.name
                                                 << "' is not supported");
  if (target.slice_hi) {
    BitVector current = dest.get();
    const int hi = static_cast<int>(eval_int(*target.slice_hi, state));
    const int lo = static_cast<int>(eval_int(*target.slice_lo, state));
    current.set_slice(hi, lo, coerce(hi - lo + 1));
    dest.set(std::move(current));
  } else {
    dest.set(coerce(dest.type().scalar_width()));
  }
}

void Interpreter::exec_signal_assign(const spec::SignalAssign& sa,
                                     ProcState& state) {
  if (const AssignSlot* slot = assign_slots_.find(&sa)) {
    Scalar value = eval(*sa.value, state);
    kernel_.schedule_signal(slot->id, extend(value, slot->width));
    return;
  }
  const FieldKey key{sa.signal, sa.field};
  const int width = kernel_.signal_value(key).width();
  Scalar value = eval(*sa.value, state);
  kernel_.schedule_signal(key, extend(value, width));
}

// ---- statement execution -------------------------------------------------

// NOTE on coroutine style: every co_await in this file awaits a *named
// local*, never a prvalue. GCC 12 miscompiles non-trivially-destructible
// temporaries inside co_await expressions (double destruction of the
// awaiter/task temporary), which corrupts shared_ptr reference counts.
// Hoisting the operand into a local sidesteps the bug; see
// tests/sim/kernel_test.cpp for the matching test-side convention.
SimTask Interpreter::run_process(const spec::Process& process,
                                 ProcState& state) {
  // (Re)initialize the process-local frame for this activation.
  state.frames.clear();
  state.frames.emplace_back();
  for (const auto& local : process.locals) {
    state.frames.back().vars.emplace(
        local.name, local.init ? *local.init : spec::Value(local.type));
  }
  SimTask body = exec_block(process.body, state);
  co_await body;
}


SimTask Interpreter::exec_call(const spec::ProcCall& call, ProcState& state) {
  const spec::Procedure* proc = system_.find_procedure(call.proc);
  IFSYN_ASSERT_MSG(proc, "call to unknown procedure '" << call.proc << "'");
  IFSYN_ASSERT_MSG(proc->params.size() == call.args.size(),
                   "procedure " << call.proc << " expects "
                                << proc->params.size() << " args, got "
                                << call.args.size());

  // Copy-in: evaluate `in` actuals in the caller's scope.
  Frame frame;
  for (std::size_t i = 0; i < proc->params.size(); ++i) {
    const spec::Param& param = proc->params[i];
    if (param.dir == spec::ParamDir::kIn) {
      const auto* arg_expr = std::get_if<spec::ExprPtr>(&call.args[i]);
      IFSYN_ASSERT_MSG(arg_expr, "out-style actual passed to in param "
                                     << param.name << " of " << call.proc);
      Scalar v = eval(**arg_expr, state);
      spec::Value storage(param.type);
      storage.set(extend(v, param.type.scalar_width()));
      frame.vars.emplace(param.name, std::move(storage));
    } else {
      IFSYN_ASSERT_MSG(std::holds_alternative<spec::LValue>(call.args[i]),
                       "expression actual passed to out param "
                           << param.name << " of " << call.proc);
      frame.vars.emplace(param.name, spec::Value(param.type));
    }
  }
  for (const auto& local : proc->locals) {
    frame.vars.emplace(local.name,
                       local.init ? *local.init : spec::Value(local.type));
  }

  state.frames.push_back(std::move(frame));
  {
    SimTask body = exec_block(proc->body, state);
    co_await body;
  }

  // Copy-out: write `out` params back to the caller's lvalues.
  Frame done = std::move(state.frames.back());
  state.frames.pop_back();
  for (std::size_t i = 0; i < proc->params.size(); ++i) {
    const spec::Param& param = proc->params[i];
    if (param.dir != spec::ParamDir::kOut) continue;
    const spec::Value& out_val = done.vars.at(param.name);
    store(state, std::get<spec::LValue>(call.args[i]),
          Scalar{out_val.get(), param.type.is_signed()});
  }
}

SimTask Interpreter::exec_block(const Block& block, ProcState& state) {
  using namespace spec;
  // Statements dispatch inline: a per-statement child coroutine would cost
  // one frame allocation per executed statement, which dominated the
  // interpreter's profile. Only constructs that truly nest (branch/loop
  // bodies, procedure calls) spawn a child task. A coroutine cannot
  // co_await inside std::visit's lambda, so dispatch is manual.
  for (const auto& stmt_ptr : block) {
    const Stmt& stmt = *stmt_ptr;
    if (const auto* s = stmt.as<VarAssign>()) {
      store(state, s->target, eval(*s->value, state));
    } else if (const auto* s = stmt.as<SignalAssign>()) {
      exec_signal_assign(*s, state);
    } else if (const auto* s = stmt.as<WaitUntil>()) {
      // The kernel parks a pointer to `cond`, a named local of this
      // coroutine frame, which stays alive until the wait resumes.
      auto cond = [this, s, &state]() {
        return eval(*s->cond, state).truthy();
      };
      auto awaiter = kernel_.wait_until(cond);
      co_await awaiter;
    } else if (const auto* s = stmt.as<WaitOn>()) {
      // setup() interned every wait set. The id span stays valid across
      // the suspension: it points into wait_sets_, which outlives every
      // kernel run.
      const std::vector<SignalId>* ids = wait_sets_.find(s);
      IFSYN_ASSERT_MSG(ids != nullptr, "wait set not interned");
      auto awaiter = kernel_.wait_on(std::span<const SignalId>(*ids));
      co_await awaiter;
    } else if (const auto* s = stmt.as<WaitFor>()) {
      const std::int64_t cycles = eval_int(*s->cycles, state);
      IFSYN_ASSERT_MSG(cycles >= 0, "negative wait duration");
      auto awaiter = kernel_.wait_for(static_cast<std::uint64_t>(cycles));
      co_await awaiter;
    } else if (const auto* s = stmt.as<IfStmt>()) {
      if (eval(*s->cond, state).truthy()) {
        SimTask branch = exec_block(s->then_body, state);
        co_await branch;
      } else {
        SimTask branch = exec_block(s->else_body, state);
        co_await branch;
      }
    } else if (const auto* s = stmt.as<ForStmt>()) {
      const std::int64_t from = eval_int(*s->from, state);
      const std::int64_t to = eval_int(*s->to, state);
      // The loop variable lives in the current innermost frame for the
      // duration of the loop, shadowing any same-named outer variable.
      // Index, not reference: procedure calls in the body push frames and
      // may reallocate the frame vector.
      const std::size_t frame_idx = state.frames.size() - 1;
      auto vars_at = [&state, frame_idx]() -> Frame& {
        return state.frames[frame_idx];
      };
      auto prev = vars_at().vars.count(s->var)
                      ? std::optional(vars_at().vars.at(s->var))
                      : std::nullopt;
      for (std::int64_t i = from; i <= to; ++i) {
        vars_at().vars.insert_or_assign(s->var, spec::Value::integer(i));
        SimTask body = exec_block(s->body, state);
        co_await body;
      }
      if (prev) {
        vars_at().vars.insert_or_assign(s->var, std::move(*prev));
      } else {
        vars_at().vars.erase(s->var);
      }
    } else if (const auto* s = stmt.as<WhileStmt>()) {
      while (eval(*s->cond, state).truthy()) {
        SimTask body = exec_block(s->body, state);
        co_await body;
      }
    } else if (const auto* s = stmt.as<ForeverStmt>()) {
      for (;;) {
        SimTask body = exec_block(s->body, state);
        co_await body;
      }
    } else if (const auto* s = stmt.as<ProcCall>()) {
      SimTask callee = exec_call(*s, state);
      co_await callee;
    } else if (const auto* s = stmt.as<BusLock>()) {
      if (const BusId* bus = bus_refs_.find(s)) {
        if (s->acquire) {
          auto awaiter = kernel_.acquire_bus(*bus);
          co_await awaiter;
        } else {
          kernel_.release_bus(*bus);
        }
      } else if (s->acquire) {
        auto awaiter = kernel_.acquire_bus(s->bus);
        co_await awaiter;
      } else {
        kernel_.release_bus(s->bus);
      }
    } else {
      IFSYN_ASSERT_MSG(false, "unhandled statement kind");
    }
  }
}

// ---- convenience ---------------------------------------------------------

SimulationRun simulate(const spec::System& system, std::uint64_t max_time,
                       bool trace, const obs::ObsContext& obs,
                       Engine engine) {
  // One span per simulation run; inside a service request it carries the
  // owning request's trace id, so cosim legs show up attributed in a
  // service-wide trace.
  obs::Span span(obs.trace, "simulate " + system.name(), "sim", obs.request);
  SimulationRun run;
  run.kernel = std::make_unique<Kernel>();
  run.kernel->enable_trace(trace);
  run.kernel->set_obs(obs);
  run.interpreter = std::make_unique<Interpreter>(system, *run.kernel, engine);
  Status setup = run.interpreter->setup();
  if (!setup.is_ok()) {
    run.result.status = setup;
    return run;
  }
  run.result = run.kernel->run(max_time);
  return run;
}

}  // namespace ifsyn::sim
