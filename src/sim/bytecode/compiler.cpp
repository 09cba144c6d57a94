// ifsyn/sim/bytecode/compiler.cpp
//
// Spec -> register bytecode lowering. See compiler.hpp for the contract
// and DESIGN.md Sec. 10 for the lowering rules; the inline comments here
// focus on where the lowering must bend to match the AST engine's
// observable behavior exactly (evaluation order, lazy errors, for-loop
// variable shadowing).

#include "sim/bytecode/compiler.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/bytecode/optimizer.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim::bytecode {

namespace {

using spec::Block;
using spec::Expr;
using spec::Stmt;

class ProcessCompiler {
 public:
  ProcessCompiler(const spec::System& system, const Kernel& kernel,
                  const CompiledSystem& globals, const spec::Process& process)
      : system_(system), kernel_(kernel), globals_(globals),
        process_(process) {}

  ProcProgram compile() {
    prog_.process_name = process_.name;
    prog_.restarts = process_.restarts;

    // Frame layout 0: the process-local frame. Duplicate declarations keep
    // the first slot (matching the AST engine's map::emplace).
    FrameLayout layout0;
    std::map<std::string, int> names0;
    for (const auto& local : process_.locals) {
      layout0.slots.push_back(SlotInfo{local.type, local.init, local.name});
      names0.emplace(local.name,
                     static_cast<int>(layout0.slots.size()) - 1);
    }
    prog_.frame_layouts.push_back(std::move(layout0));
    process_names_ = names0;

    prog_.entry = 0;
    current_ = Unit{Space::kProcess, 0, std::move(names0), {}};
    compile_block(process_.body);
    emit({.op = Op::kHalt});

    // Procedure units, compiled on demand: the body compile above queued
    // every directly-called procedure; compiling those may queue more
    // (procedures calling procedures), so this is a worklist. Index-based
    // iteration — proc_units_ grows while we walk it.
    for (std::size_t u = 0; u < proc_units_.size(); ++u) {
      const spec::Procedure& proc = *proc_units_[u].proc;
      std::map<std::string, int> names;
      {
        const auto& slots = prog_.frame_layouts[proc_units_[u].layout].slots;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          names.emplace(slots[i].name, static_cast<int>(i));
        }
      }
      proc_units_[u].entry = static_cast<std::uint32_t>(prog_.code.size());
      current_ = Unit{Space::kFrame, proc_units_[u].layout, std::move(names),
                      {}};
      compile_block(proc.body);
      emit({.op = Op::kReturn});
    }
    for (const auto& [cs, unit] : callsite_units_) {
      prog_.callsites[cs].entry_pc = proc_units_[unit].entry;
    }

    IFSYN_ASSERT_MSG(max_reg_ < 0xffff, "register file overflow");
    prog_.num_regs = static_cast<std::uint16_t>(max_reg_ + 1);
    return std::move(prog_);
  }

 private:
  /// An active for-loop variable binding in the current unit.
  struct Binding {
    std::string name;
    int slot;
  };
  /// Compile scope for one unit (the process body or one procedure).
  struct Unit {
    Space space = Space::kProcess;  ///< where the unit's frame slots live
    std::uint32_t layout = 0;       ///< its frame layout index
    std::map<std::string, int> names;  ///< declared params/locals -> slot
    std::vector<Binding> loop_vars;
  };
  struct ProcUnit {
    const spec::Procedure* proc = nullptr;
    std::uint32_t layout = 0;
    std::uint32_t entry = 0;
  };
  struct Resolved {
    Space space;
    int slot;
    spec::Type type;
  };

  // ---- name resolution (compile-time mirror of Interpreter::lookup) ----
  // AST order: innermost frame (current unit incl. active loop vars), then
  // process locals, then globals. Intermediate call frames are invisible.
  std::optional<Resolved> resolve(const std::string& name) const {
    for (auto it = current_.loop_vars.rbegin();
         it != current_.loop_vars.rend(); ++it) {
      if (it->name == name) {
        // Loop variables are Value::integer (32-bit signed) regardless of
        // what slot they occupy.
        return Resolved{current_.space, it->slot, spec::Type::integer()};
      }
    }
    if (auto it = current_.names.find(name); it != current_.names.end()) {
      return Resolved{current_.space, it->second,
                      unit_slot_type(it->second)};
    }
    if (current_.space == Space::kFrame) {
      if (auto it = process_names_.find(name); it != process_names_.end()) {
        return Resolved{Space::kProcess, it->second,
                        prog_.frame_layouts[0].slots[it->second].type};
      }
    }
    if (auto it = globals_.global_index.find(name);
        it != globals_.global_index.end()) {
      return Resolved{Space::kGlobal, static_cast<int>(it->second),
                      globals_.global_slots[it->second].type};
    }
    return std::nullopt;
  }

  spec::Type unit_slot_type(int slot) const {
    return prog_.frame_layouts[current_.layout].slots[slot].type;
  }

  int add_hidden_slot(spec::Type type) {
    auto& slots = prog_.frame_layouts[current_.layout].slots;
    slots.push_back(SlotInfo{type, std::nullopt, "<hidden>"});
    return static_cast<int>(slots.size()) - 1;
  }

  // ---- emission helpers ----
  int emit(Instr in) {
    out_->push_back(in);
    return static_cast<int>(out_->size()) - 1;
  }
  void patch_jump_target(int at, int target) {
    Instr& in = (*out_)[at];
    (in.op == Op::kJumpIfFalse ? in.b : in.a) = target;
  }
  int here() const { return static_cast<int>(out_->size()); }

  int note_reg(int reg) {
    if (reg > max_reg_) max_reg_ = reg;
    return reg;
  }

  int const_index(const Scalar& s) {
    for (std::size_t i = 0; i < prog_.consts.size(); ++i) {
      if (prog_.consts[i].is_signed == s.is_signed &&
          prog_.consts[i].bits == s.bits) {
        return static_cast<int>(i);
      }
    }
    prog_.consts.push_back(s);
    return static_cast<int>(prog_.consts.size()) - 1;
  }

  void emit_trap(std::string message) {
    prog_.traps.push_back(std::move(message));
    emit({.op = Op::kTrap,
          .a = static_cast<std::int32_t>(prog_.traps.size()) - 1});
  }

  // ---- constant folding ----
  // Fold only what is guaranteed to evaluate the same at runtime: literals
  // and operator chains over them, using the exact shared eval helpers. An
  // operation that would throw (division by zero, to_int on an over-wide
  // value) stays unfolded so the error keeps its lazy, only-if-executed
  // timing. Slices never fold for the same reason (bound checks).
  std::optional<Scalar> fold(const Expr& e) const {
    using namespace spec;
    const auto& alt = e.node();
    if (const auto* n = std::get_if<IntLit>(&alt)) return make_int(n->value);
    if (const auto* n = std::get_if<BitsLit>(&alt)) {
      return Scalar{n->value, false};
    }
    if (const auto* n = std::get_if<UnaryExpr>(&alt)) {
      const auto operand = fold(*n->operand);
      if (!operand) return std::nullopt;
      try {
        return eval_unary_op(n->op, *operand);
      } catch (const InternalError&) {
        return std::nullopt;
      }
    }
    if (const auto* n = std::get_if<BinaryExpr>(&alt)) {
      const auto lhs = fold(*n->lhs);
      if (!lhs) return std::nullopt;
      const auto rhs = fold(*n->rhs);
      if (!rhs) return std::nullopt;
      try {
        return eval_binary_op(n->op, *lhs, *rhs);
      } catch (const InternalError&) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  // ---- expressions ----
  // compile_expr leaves the result in `reg`, using registers above `reg`
  // as scratch. Sub-expression order matches the AST evaluator exactly
  // (lhs before rhs, base before hi before lo, index before name lookup).
  void compile_expr(const Expr& e, int reg) {
    note_reg(reg);
    if (auto c = fold(e)) {
      emit({.op = Op::kConst, .dst = static_cast<std::uint16_t>(reg),
            .a = const_index(*c)});
      return;
    }
    using namespace spec;
    const auto& alt = e.node();
    if (const auto* n = std::get_if<VarRef>(&alt)) {
      const auto r = resolve(n->name);
      if (!r) {
        emit_trap("reference to undeclared variable '" + n->name + "'");
        return;
      }
      if (r->type.is_array()) {
        emit_trap("array '" + n->name + "' used without an index");
        return;
      }
      emit({.op = Op::kLoadVar, .aux = static_cast<std::uint8_t>(r->space),
            .dst = static_cast<std::uint16_t>(reg), .a = r->slot});
      return;
    }
    if (const auto* n = std::get_if<ArrayRef>(&alt)) {
      compile_expr(*n->index, reg);
      const auto r = resolve(n->name);
      if (!r) {
        emit_trap("reference to undeclared variable '" + n->name + "'");
        return;
      }
      if (!r->type.is_array()) {
        emit_trap("indexing non-array '" + n->name + "'");
        return;
      }
      emit({.op = Op::kLoadArray, .aux = static_cast<std::uint8_t>(r->space),
            .dst = static_cast<std::uint16_t>(reg), .a = r->slot, .b = reg});
      return;
    }
    if (const auto* n = std::get_if<SignalRef>(&alt)) {
      const FieldKey key{n->signal, n->field};
      const SignalId id = kernel_.find_signal_id(key);
      if (id == kInvalidSignalId) {
        emit_trap("unknown signal field " + key.to_string());
        return;
      }
      emit({.op = Op::kLoadSignal, .dst = static_cast<std::uint16_t>(reg),
            .a = static_cast<std::int32_t>(id)});
      return;
    }
    if (const auto* n = std::get_if<SliceExpr>(&alt)) {
      compile_expr(*n->base, reg);
      compile_expr(*n->hi, reg + 1);
      compile_expr(*n->lo, reg + 2);
      emit({.op = Op::kSlice, .dst = static_cast<std::uint16_t>(reg),
            .a = reg, .b = reg + 1, .c = reg + 2});
      return;
    }
    if (const auto* n = std::get_if<UnaryExpr>(&alt)) {
      compile_expr(*n->operand, reg);
      emit({.op = Op::kUnary, .aux = static_cast<std::uint8_t>(n->op),
            .dst = static_cast<std::uint16_t>(reg), .a = reg});
      return;
    }
    if (const auto* n = std::get_if<BinaryExpr>(&alt)) {
      compile_expr(*n->lhs, reg);
      compile_expr(*n->rhs, reg + 1);
      emit({.op = Op::kBinary, .aux = static_cast<std::uint8_t>(n->op),
            .dst = static_cast<std::uint16_t>(reg), .a = reg, .b = reg + 1});
      return;
    }
    // IntLit and BitsLit always fold above.
    IFSYN_ASSERT_MSG(false, "unhandled expression kind");
  }

  /// Result of `expr` as an int64 (eval_int semantics) in `reg`.
  void compile_int_expr(const Expr& e, int reg) {
    compile_expr(e, reg);
    emit({.op = Op::kToInt, .dst = static_cast<std::uint16_t>(reg),
          .a = reg});
  }

  // ---- stores ----
  // The value is already in `value_reg`; index/slice bounds evaluate after
  // it, mirroring Interpreter::store (value, then index, then hi, then lo;
  // array-ness checks before the bound expressions run).
  void compile_store(const spec::LValue& t, int value_reg) {
    const auto r = resolve(t.name);
    if (!r) {
      emit_trap("reference to undeclared variable '" + t.name + "'");
      return;
    }
    const auto space = static_cast<std::uint8_t>(r->space);
    const int width = r->type.scalar_width();
    if (t.index) {
      if (!r->type.is_array()) {
        emit_trap("indexed store into non-array '" + t.name + "'");
        return;
      }
      compile_expr(*t.index, value_reg + 1);
      if (t.slice_hi) {
        compile_expr(*t.slice_hi, value_reg + 2);
        compile_expr(*t.slice_lo, value_reg + 3);
        emit({.op = Op::kStoreArraySlice, .aux = space,
              .dst = static_cast<std::uint16_t>(value_reg), .a = r->slot,
              .b = value_reg + 1, .c = value_reg + 2, .d = value_reg + 3});
      } else {
        emit({.op = Op::kStoreArrayElem, .aux = space, .a = r->slot,
              .b = value_reg + 1, .c = value_reg, .d = width});
      }
      return;
    }
    if (r->type.is_array()) {
      emit_trap("whole-array assignment to '" + t.name +
                "' is not supported");
      return;
    }
    if (t.slice_hi) {
      compile_expr(*t.slice_hi, value_reg + 1);
      compile_expr(*t.slice_lo, value_reg + 2);
      emit({.op = Op::kStoreSlice, .aux = space,
            .dst = static_cast<std::uint16_t>(value_reg), .a = r->slot,
            .b = value_reg + 1, .c = value_reg + 2});
    } else {
      emit({.op = Op::kStoreVar, .aux = space, .a = r->slot, .b = value_reg,
            .c = width});
    }
  }

  // ---- statements ----
  void compile_block(const Block& block) {
    using namespace spec;
    for (const auto& stmt_ptr : block) {
      const Stmt& stmt = *stmt_ptr;
      if (const auto* s = stmt.as<VarAssign>()) {
        compile_expr(*s->value, 0);
        compile_store(s->target, 0);
      } else if (const auto* s = stmt.as<SignalAssign>()) {
        const FieldKey key{s->signal, s->field};
        const SignalId id = kernel_.find_signal_id(key);
        if (id == kInvalidSignalId) {
          // AST order: the width lookup throws before the value evaluates.
          emit_trap("unknown signal field " + key.to_string());
          continue;
        }
        const int width = kernel_.signal_value(id).width();
        compile_expr(*s->value, 0);
        emit({.op = Op::kSignalAssign, .a = static_cast<std::int32_t>(id),
              .b = width, .c = 0});
      } else if (const auto* s = stmt.as<WaitUntil>()) {
        emit({.op = Op::kWaitUntil, .a = compile_cond(*s->cond)});
      } else if (const auto* s = stmt.as<WaitOn>()) {
        // Unknown keys resolve to nothing (never-wakes semantics, same as
        // the AST engine's interning pre-pass).
        std::vector<SignalId> ids;
        ids.reserve(s->sensitivity.size());
        for (const auto& sf : s->sensitivity) {
          const SignalId id =
              sf.field.empty()
                  ? kernel_.find_wildcard_id(sf.signal)
                  : kernel_.find_signal_id(FieldKey{sf.signal, sf.field});
          if (id != kInvalidSignalId) ids.push_back(id);
        }
        prog_.wait_sets.push_back(std::move(ids));
        emit({.op = Op::kWaitOn,
              .a = static_cast<std::int32_t>(prog_.wait_sets.size()) - 1});
      } else if (const auto* s = stmt.as<WaitFor>()) {
        compile_int_expr(*s->cycles, 0);
        emit({.op = Op::kWaitFor, .a = 0});
      } else if (const auto* s = stmt.as<IfStmt>()) {
        compile_expr(*s->cond, 0);
        const int jf = emit({.op = Op::kJumpIfFalse, .a = 0});
        compile_block(s->then_body);
        const int jend = emit({.op = Op::kJump});
        patch_jump_target(jf, here());
        compile_block(s->else_body);
        patch_jump_target(jend, here());
      } else if (const auto* s = stmt.as<ForStmt>()) {
        compile_for(*s);
      } else if (const auto* s = stmt.as<WhileStmt>()) {
        const int top = here();
        compile_expr(*s->cond, 0);
        const int jf = emit({.op = Op::kJumpIfFalse, .a = 0});
        compile_block(s->body);
        emit({.op = Op::kJump, .a = top});
        patch_jump_target(jf, here());
      } else if (const auto* s = stmt.as<ForeverStmt>()) {
        const int top = here();
        compile_block(s->body);
        emit({.op = Op::kJump, .a = top});
      } else if (const auto* s = stmt.as<ProcCall>()) {
        compile_call(*s);
      } else if (const auto* s = stmt.as<BusLock>()) {
        const BusId id = kernel_.find_bus_id(s->bus);
        if (id == kInvalidBusId) {
          emit_trap("unknown bus lock " + s->bus);
          continue;
        }
        emit({.op = s->acquire ? Op::kAcquireBus : Op::kReleaseBus,
              .a = static_cast<std::int32_t>(id)});
      } else {
        IFSYN_ASSERT_MSG(false, "unhandled statement kind");
      }
    }
  }

  // For loops iterate a hidden 64-bit counter (eval_int semantics for the
  // bounds, both evaluated once, up-front). The visible variable is
  // re-stored as Value::integer each iteration. When the name shadows a
  // slot of the *current unit frame* (a declared local/param, or an outer
  // loop variable), that slot is reused with save/restore around the loop
  // — reproducing the AST engine's insert_or_assign shadowing, including
  // visibility of a process-level loop variable inside called procedures.
  // Otherwise the variable gets a fresh hidden slot that simply goes out
  // of (compile-time) scope at the loop end.
  void compile_for(const spec::ForStmt& s) {
    const auto uspace = static_cast<std::uint8_t>(current_.space);
    compile_int_expr(*s.from, 0);
    compile_int_expr(*s.to, 1);
    note_reg(1);
    const int counter = add_hidden_slot(spec::Type::integer(64));
    const int limit = add_hidden_slot(spec::Type::integer(64));
    emit({.op = Op::kStoreVar, .aux = uspace, .a = counter, .b = 0, .c = 64});
    emit({.op = Op::kStoreVar, .aux = uspace, .a = limit, .b = 1, .c = 64});

    int var_slot;
    int save_slot = -1;
    if (const auto r = resolve(s.var); r && r->space == current_.space) {
      var_slot = r->slot;
      save_slot = add_hidden_slot(r->type);
      emit({.op = Op::kSaveVar, .aux = uspace, .a = save_slot,
            .b = var_slot});
    } else {
      var_slot = add_hidden_slot(spec::Type::integer());
    }
    current_.loop_vars.push_back(Binding{s.var, var_slot});

    // Head and back edge are single fused instructions: the test/compare/
    // store-loop-var/increment machinery ran as ~8 discrete ops per
    // iteration before and dominated loop-heavy interpreted code.
    const int top = here();
    const int test = emit({.op = Op::kLoopTest, .aux = uspace, .a = counter,
                           .b = limit, .d = var_slot});
    compile_block(s.body);
    emit({.op = Op::kLoopInc, .aux = uspace, .a = counter, .b = top});
    (*out_)[static_cast<std::size_t>(test)].c = here();

    current_.loop_vars.pop_back();
    if (save_slot >= 0) {
      emit({.op = Op::kRestoreVar, .aux = uspace, .a = var_slot,
            .b = save_slot});
    }
  }

  int compile_cond(const Expr& cond) {
    std::vector<Instr>* saved = out_;
    out_ = &prog_.cond_code;
    const auto start = static_cast<std::uint32_t>(prog_.cond_code.size());
    compile_expr(cond, 0);
    out_ = saved;
    const auto count =
        static_cast<std::uint32_t>(prog_.cond_code.size()) - start;
    // ref_ops = count: the optimizer may shrink count but preserves
    // ref_ops, which is what eval_parked charges to sim.vm.executed_ops.
    CondProgram cp{.start = start, .count = count, .ref_ops = count};
    cp.sensitized = sensitize(cp);
    prog_.conds.push_back(cp);
    return static_cast<int>(prog_.conds.size()) - 1;
  }

  /// Append `cp`'s signal read set to cond_reads and point `cp` at it;
  /// false (nothing appended) when the condition must stay on the
  /// kernel's every-commit list (see CondProgram).
  bool sensitize(CondProgram& cp) {
    const auto reads_start =
        static_cast<std::uint32_t>(prog_.cond_reads.size());
    const auto unsensitized = [&] {
      prog_.cond_reads.resize(reads_start);
      return false;
    };
    for (std::uint32_t pc = cp.start; pc < cp.start + cp.count; ++pc) {
      const Instr& in = prog_.cond_code[pc];
      switch (in.op) {
        case Op::kLoadSignal: {
          const auto id = static_cast<SignalId>(in.a);
          const auto first = prog_.cond_reads.begin() + reads_start;
          if (std::find(first, prog_.cond_reads.end(), id) ==
              prog_.cond_reads.end()) {
            prog_.cond_reads.push_back(id);
          }
          break;
        }
        case Op::kLoadVar:
          if (static_cast<Space>(in.aux) == Space::kGlobal) {
            return unsensitized();
          }
          break;
        case Op::kBinary: {
          const auto op = static_cast<spec::BinaryOp>(in.aux);
          if ((op == spec::BinaryOp::kDiv || op == spec::BinaryOp::kMod) &&
              !nonzero_const_divisor(cp.start, pc)) {
            return unsensitized();
          }
          break;
        }
        case Op::kTrap:
        case Op::kLoadArray:
        case Op::kCall:
        case Op::kSlice:
          return unsensitized();
        default:
          break;
      }
    }
    cp.reads_start = reads_start;
    cp.reads_count =
        static_cast<std::uint32_t>(prog_.cond_reads.size()) - reads_start;
    return true;
  }

  /// True when the divisor of the kDiv/kMod at cond_code[pc] is a folded
  /// constant that is neither zero nor too wide for to_int: compile_expr
  /// then loaded it with the kConst right before the kBinary.
  bool nonzero_const_divisor(std::uint32_t start, std::uint32_t pc) const {
    if (pc == start) return false;
    const Instr& prev = prog_.cond_code[pc - 1];
    if (prev.op != Op::kConst || prev.dst != prog_.cond_code[pc].b) {
      return false;
    }
    const Scalar& divisor = prog_.consts[static_cast<std::size_t>(prev.a)];
    const int width = divisor.bits.width();
    return width > 0 && width <= 64 && divisor.to_int() != 0;
  }

  // Calls lower to: evaluate `in` actuals into consecutive registers (in
  // parameter order, so a lazy arg-shape mismatch traps after the earlier
  // actuals evaluated — AST timing), kCall (push frame, copy-in, jump),
  // then per `out` parameter a kLoadRet + store whose index/slice bounds
  // evaluate after the call returns, exactly like the AST copy-out.
  void compile_call(const spec::ProcCall& call) {
    const spec::Procedure* proc = system_.find_procedure(call.proc);
    if (!proc) {
      emit_trap("call to unknown procedure '" + call.proc + "'");
      return;
    }
    if (proc->params.size() != call.args.size()) {
      emit_trap("procedure " + call.proc + " expects " +
                std::to_string(proc->params.size()) + " args, got " +
                std::to_string(call.args.size()));
      return;
    }
    const int unit = ensure_proc_unit(*proc);
    CallSite cs;
    cs.frame_layout = proc_units_[unit].layout;
    int reg = 0;
    for (std::size_t i = 0; i < proc->params.size(); ++i) {
      const spec::Param& param = proc->params[i];
      if (param.dir == spec::ParamDir::kIn) {
        const auto* arg_expr = std::get_if<spec::ExprPtr>(&call.args[i]);
        if (!arg_expr) {
          emit_trap("out-style actual passed to in param " + param.name +
                    " of " + call.proc);
          return;
        }
        compile_expr(**arg_expr, reg);
        cs.in_args.push_back(CallSite::InArg{
            static_cast<std::uint32_t>(i), static_cast<std::uint16_t>(reg),
            param.type.scalar_width()});
        ++reg;
      } else if (!std::holds_alternative<spec::LValue>(call.args[i])) {
        emit_trap("expression actual passed to out param " + param.name +
                  " of " + call.proc);
        return;
      }
    }
    note_reg(reg);
    prog_.callsites.push_back(std::move(cs));
    const int cs_idx = static_cast<int>(prog_.callsites.size()) - 1;
    callsite_units_.emplace_back(cs_idx, unit);
    emit({.op = Op::kCall, .a = cs_idx});
    for (std::size_t i = 0; i < proc->params.size(); ++i) {
      const spec::Param& param = proc->params[i];
      if (param.dir != spec::ParamDir::kOut) continue;
      emit({.op = Op::kLoadRet, .dst = 0,
            .a = static_cast<std::int32_t>(i)});
      compile_store(std::get<spec::LValue>(call.args[i]), 0);
    }
  }

  int ensure_proc_unit(const spec::Procedure& proc) {
    if (auto it = proc_unit_index_.find(proc.name);
        it != proc_unit_index_.end()) {
      return it->second;
    }
    FrameLayout layout;
    for (const auto& p : proc.params) {
      layout.slots.push_back(SlotInfo{p.type, std::nullopt, p.name});
    }
    for (const auto& l : proc.locals) {
      layout.slots.push_back(SlotInfo{l.type, l.init, l.name});
    }
    prog_.frame_layouts.push_back(std::move(layout));
    proc_units_.push_back(ProcUnit{
        &proc, static_cast<std::uint32_t>(prog_.frame_layouts.size()) - 1,
        0});
    const int idx = static_cast<int>(proc_units_.size()) - 1;
    proc_unit_index_.emplace(proc.name, idx);
    return idx;
  }

  const spec::System& system_;
  const Kernel& kernel_;
  const CompiledSystem& globals_;
  const spec::Process& process_;

  ProcProgram prog_;
  std::vector<Instr>* out_ = &prog_.code;
  Unit current_;
  std::map<std::string, int> process_names_;  ///< process-local name -> slot
  std::vector<ProcUnit> proc_units_;
  std::map<std::string, int> proc_unit_index_;
  std::vector<std::pair<int, int>> callsite_units_;
  int max_reg_ = 0;
};

}  // namespace

CompiledSystem compile(const spec::System& system, const Kernel& kernel) {
  CompiledSystem cs;
  for (const auto& v : system.variables()) {
    cs.global_slots.push_back(SlotInfo{v->type, v->init, v->name});
    cs.global_index.emplace(
        v->name, static_cast<std::uint32_t>(cs.global_slots.size()) - 1);
  }
  cs.processes.reserve(system.processes().size());
  for (const auto& p : system.processes()) {
    ProcessCompiler pc(system, kernel, cs, *p);
    cs.processes.push_back(pc.compile());
    cs.total_instructions += cs.processes.back().code.size() +
                             cs.processes.back().cond_code.size();
  }
  cs.optimized_instructions = cs.total_instructions;
  return cs;
}

CompiledSystem compile(const spec::System& system, const Kernel& kernel,
                       OptLevel level) {
  CompiledSystem cs = compile(system, kernel);
  optimize(cs, level);
  return cs;
}

}  // namespace ifsyn::sim::bytecode
