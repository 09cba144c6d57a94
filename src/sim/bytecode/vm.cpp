// ifsyn/sim/bytecode/vm.cpp
//
// Dispatch loop and operand semantics. Every operation reproduces the AST
// interpreter's observable behavior exactly (same Scalar arithmetic via
// sim/scalar.hpp, same evaluation order baked in by the compiler, same
// error messages via kTrap) — the differential fuzz harness diffs the two
// engines' variable state and traces after every run.

#include "sim/bytecode/vm.hpp"

#include <chrono>
#include <optional>
#include <span>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/bytecode/compiler.hpp"
#include "sim/bytecode/optimizer.hpp"
#include "sim/bytecode/program_cache.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim::bytecode {

Vm::Vm(const spec::System& system, Kernel& kernel)
    : system_(system), kernel_(kernel) {}

void Vm::setup() {
  obs::MetricsRegistry* metrics = kernel_.obs().metrics;

  const OptLevel level = opt_level_from_env();
  const auto t0 = std::chrono::steady_clock::now();
  if (ProgramCache* cache = process_cache()) {
    // The key incorporates the optimization level: a process serving
    // mixed IFSYN_SIM_OPT requests keeps one artifact per level and can
    // never hand an optimized program to a reference-engine run.
    compiled_ = cache->get_or_compute(
        system_cache_key(system_, level), [this, level] {
          return std::make_shared<const CompiledSystem>(
              compile(system_, kernel_, level));
        });
  } else {
    compiled_ = std::make_shared<const CompiledSystem>(
        compile(system_, kernel_, level));
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (metrics) {
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
    metrics->counter("sim.vm.compile_us", obs::Determinism::kWallClock)
        .add(us);
    // Deterministic program-shape metrics count materializations, not
    // actual compiles, so a request's report reads the same whether its
    // artifact came from the cache or a fresh compile; the cache's own
    // hit/miss counters carry the load-dependent story.
    metrics->counter("sim.vm.compiles").add(1);
    metrics->counter("sim.vm.compiled_instructions")
        .add(compiled_->total_instructions);
    // Run-local execution counters, published once when each kernel run
    // ends (no atomic RMW per instruction burst or condition evaluation).
    metrics->counter("sim.vm.executed_ops");
    metrics->counter("sim.vm.condition_evals");
    // Optimizer introspection. All wall-clock-classed: they vary with
    // IFSYN_SIM_OPT, and the deterministic report tables must stay
    // byte-identical across levels (executed_ops does, via weights).
    metrics->gauge("sim.vm.opt.level", obs::Determinism::kWallClock)
        .set(static_cast<std::int64_t>(compiled_->opt_level));
    metrics
        ->counter("sim.vm.opt.patterns_matched", obs::Determinism::kWallClock)
        .add(compiled_->opt.patterns_matched);
    metrics
        ->counter("sim.vm.opt.instructions_eliminated",
                  obs::Determinism::kWallClock)
        .add(compiled_->opt.instructions_eliminated);
    metrics->counter("sim.vm.opt.bulk_ops", obs::Determinism::kWallClock);
    // Capturing only `this` keeps the hook in std::function's inline
    // buffer; the name lookups run once per kernel run.
    kernel_.on_run_end([this] {
      obs::MetricsRegistry& reg = *kernel_.obs().metrics;
      reg.counter("sim.vm.executed_ops")
          .add(std::exchange(run_.executed_ops, 0));
      reg.counter("sim.vm.condition_evals")
          .add(std::exchange(run_.condition_evals, 0));
      reg.counter("sim.vm.opt.bulk_ops")
          .add(std::exchange(run_.bulk_ops, 0));
    });
  }

  globals_.clear();
  globals_.reserve(compiled_->global_slots.size());
  for (const auto& g : compiled_->global_slots) {
    globals_.push_back(g.init ? *g.init : spec::Value(g.type));
  }

  for (const auto& prog : compiled_->processes) {
    ExecState& st = states_.emplace_back();
    st.vm = this;
    st.prog = &prog;
    kernel_.add_process(
        prog.process_name,
        [this, &st]() {
          reset(st);
          return run_process(st);
        },
        prog.restarts);
  }
}

const spec::Value& Vm::value_of(const std::string& variable) const {
  auto it = compiled_->global_index.find(variable);
  IFSYN_ASSERT_MSG(it != compiled_->global_index.end(),
                   "unknown variable " << variable);
  return globals_[it->second];
}

void Vm::set_value(const std::string& variable, spec::Value value) {
  auto it = compiled_->global_index.find(variable);
  IFSYN_ASSERT_MSG(it != compiled_->global_index.end(),
                   "unknown variable " << variable);
  IFSYN_ASSERT_MSG(globals_[it->second].type() == value.type(),
                   "type mismatch setting " << variable);
  globals_[it->second] = std::move(value);
}

std::vector<spec::Value> Vm::make_frame(const FrameLayout& layout) const {
  std::vector<spec::Value> frame;
  frame.reserve(layout.slots.size());
  for (const auto& s : layout.slots) {
    frame.push_back(s.init ? *s.init : spec::Value(s.type));
  }
  return frame;
}

void Vm::reset(ExecState& st) {
  st.pc = st.prog->entry;
  st.call_stack.clear();
  st.frame.clear();
  st.ret_frame.clear();
  st.frame_layout = 0;
  st.ret_frame_layout = 0;
  st.frame_pool.resize(st.prog->frame_layouts.size());
  st.proc_frame = make_frame(st.prog->frame_layouts[0]);
  st.regs.assign(st.prog->num_regs, Scalar{});
  st.spaces = {globals_.data(), st.proc_frame.data(), st.frame.data()};
}

std::vector<spec::Value> Vm::acquire_frame(ExecState& st,
                                           std::uint32_t layout_index) const {
  auto& pool = st.frame_pool[layout_index];
  const FrameLayout& layout = st.prog->frame_layouts[layout_index];
  if (pool.empty()) return make_frame(layout);
  // Pooled frames always come from the same layout, so sizes match; the
  // per-slot reinit reuses the retired frame's storage.
  std::vector<spec::Value> frame = std::move(pool.back());
  pool.pop_back();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const SlotInfo& s = layout.slots[i];
    if (s.init) {
      frame[i] = *s.init;
    } else {
      frame[i].reinit(s.type);
    }
  }
  return frame;
}

namespace {

inline std::uint64_t low_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << width) - 1;
}

/// Integer fast path for kBinary on operands of width <= 64: produces the
/// identical result to eval_binary_op (sim/scalar.hpp) directly in the
/// destination register, with no BitVector temporaries. Returns false for
/// the cases that must keep the generic path (wide operands, concat, and
/// division by zero — the generic path owns the exact error message).
/// The differential fuzz harness holds the two paths to bit-equality.
/// Forced inline: it runs once per binary op, and an out-of-line call
/// costs measurably at the VM's per-op scale.
__attribute__((always_inline)) inline bool fast_binary(spec::BinaryOp op,
                                                       const Scalar& a,
                                                       const Scalar& b,
                                                       Scalar& d) {
  using spec::BinaryOp;
  const int aw = a.bits.width(), bw = b.bits.width();
  if (aw > 64 || bw > 64) return false;
  const auto set_int = [&d](std::int64_t v) {
    d.bits.assign_uint(64, static_cast<std::uint64_t>(v));
    d.is_signed = true;
  };
  const auto set_bool = [&d](bool v) {
    d.bits.assign_uint(1, v ? 1 : 0);
    d.is_signed = false;
  };
  // `d` may alias `a` or `b`; every case reads its operands fully before
  // the set_* call writes the destination.
  const int mw = std::max(aw, bw);
  switch (op) {
    case BinaryOp::kAdd: set_int(a.to_int() + b.to_int()); return true;
    case BinaryOp::kSub: set_int(a.to_int() - b.to_int()); return true;
    case BinaryOp::kMul: set_int(a.to_int() * b.to_int()); return true;
    case BinaryOp::kDiv: {
      const std::int64_t y = b.to_int();
      if (y == 0) return false;
      set_int(a.to_int() / y);
      return true;
    }
    case BinaryOp::kMod: {
      const std::int64_t y = b.to_int();
      if (y == 0) return false;
      set_int(a.to_int() % y);
      return true;
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
    case BinaryOp::kXor: {
      // to_int() & mask == the sign/zero-extension `extend` produces.
      const std::uint64_t m = low_mask(mw);
      const std::uint64_t av = static_cast<std::uint64_t>(a.to_int()) & m;
      const std::uint64_t bv = static_cast<std::uint64_t>(b.to_int()) & m;
      const std::uint64_t v = op == BinaryOp::kAnd   ? (av & bv)
                              : op == BinaryOp::kOr  ? (av | bv)
                                                     : (av ^ bv);
      d.bits.assign_uint(mw, v);
      d.is_signed = false;
      return true;
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      const std::uint64_t m = low_mask(mw);
      const bool eq = ((static_cast<std::uint64_t>(a.to_int()) & m) ==
                       (static_cast<std::uint64_t>(b.to_int()) & m));
      set_bool(op == BinaryOp::kEq ? eq : !eq);
      return true;
    }
    case BinaryOp::kLt:
      set_bool(a.is_signed || b.is_signed
                   ? a.to_int() < b.to_int()
                   : a.bits.to_uint() < b.bits.to_uint());
      return true;
    case BinaryOp::kLe:
      set_bool(a.is_signed || b.is_signed
                   ? a.to_int() <= b.to_int()
                   : a.bits.to_uint() <= b.bits.to_uint());
      return true;
    case BinaryOp::kGt:
      set_bool(a.is_signed || b.is_signed
                   ? a.to_int() > b.to_int()
                   : a.bits.to_uint() > b.bits.to_uint());
      return true;
    case BinaryOp::kGe:
      set_bool(a.is_signed || b.is_signed
                   ? a.to_int() >= b.to_int()
                   : a.bits.to_uint() >= b.bits.to_uint());
      return true;
    case BinaryOp::kLogAnd:
      set_bool(!a.bits.is_zero() && !b.bits.is_zero());
      return true;
    case BinaryOp::kLogOr:
      set_bool(!a.bits.is_zero() || !b.bits.is_zero());
      return true;
    case BinaryOp::kConcat:
      return false;
  }
  return false;
}

/// extend(s, width) built on one word when both widths fit one:
/// (uint64)to_int() masked to `width` is exactly the sign/zero-extension
/// or truncation extend produces.
inline BitVector extend_word(const Scalar& s, int width) {
  if (width <= 64 && s.bits.width() <= 64) {
    return BitVector::from_uint(width, static_cast<std::uint64_t>(s.to_int()));
  }
  return extend(s, width);
}

/// Store `s` into scalar `v` the way kStoreVar does: in place when the
/// widths fit one word (and v's payload already has `width` bits), else
/// through extend and Value::set, which own the width-mismatch error.
inline void store_scalar(spec::Value& v, const Scalar& s, int width) {
  if (width <= 64 && s.bits.width() <= 64 &&
      v.type().scalar_width() == width) {
    v.scalar_bits().assign_uint(width, static_cast<std::uint64_t>(s.to_int()));
  } else {
    v.set(extend(s, width));
  }
}

/// The integer a loaded slot holds, as a register load plus to_int()
/// would read it (same width asserts).
inline std::int64_t slot_int(const spec::Value& v) {
  const BitVector& b = v.get();
  if (b.width() == 0) return 0;
  return v.type().is_signed() ? b.to_int()
                              : static_cast<std::int64_t>(b.to_uint());
}

/// A slice (hi downto lo) the one-word paths can take; the rest, valid or
/// not, goes through BitVector::slice/set_slice, which own the errors.
inline bool word_slice(int hi, int lo) {
  return lo <= hi && static_cast<std::int64_t>(hi) - lo < 64;
}

/// d = Scalar{src.slice(hi, lo), false}, in place when the slice fits one
/// word. `src` may be d's own bits.
inline void slice_into(Scalar& d, const BitVector& src, int hi, int lo) {
  if (word_slice(hi, lo)) {
    const std::uint64_t v = src.slice_uint(hi, lo);
    d.bits.assign_uint(hi - lo + 1, v);
    d.is_signed = false;
  } else {
    d = Scalar{src.slice(hi, lo), false};
  }
}

}  // namespace

void Vm::do_call(ExecState& st, const CallSite& cs) {
  st.call_stack.push_back(
      CallRecord{st.pc + 1, st.frame_layout, std::move(st.frame)});
  st.frame = acquire_frame(st, cs.frame_layout);
  st.spaces[static_cast<std::size_t>(Space::kFrame)] = st.frame.data();
  st.frame_layout = cs.frame_layout;
  for (const auto& a : cs.in_args) {
    store_scalar(st.frame[a.slot], st.regs[a.reg], a.width);
  }
  st.pc = cs.entry_pc;
}

void Vm::do_return(ExecState& st) {
  CallRecord& top = st.call_stack.back();
  // The previously returned frame is dead once a newer return replaces
  // it; recycle its storage for the next do_call on the same layout.
  if (!st.ret_frame.empty()) {
    st.frame_pool[st.ret_frame_layout].push_back(std::move(st.ret_frame));
  }
  st.ret_frame = std::move(st.frame);
  st.ret_frame_layout = st.frame_layout;
  st.frame = std::move(top.frame);
  st.spaces[static_cast<std::size_t>(Space::kFrame)] = st.frame.data();
  st.frame_layout = top.layout;
  st.pc = top.return_pc;
  st.call_stack.pop_back();
}


void Vm::exec_bulk_send(ExecState& st, const BulkTransfer& bt) {
  // Word index and slice bounds: the replaced kConst/kLoadVar/kBinary
  // chain ran kMul/kSub through fast_binary's 64-bit signed arithmetic
  // (or eval_binary_op's identical make_int path), so plain int64 math on
  // the prefolded constants is bit-exact. slot_int raises the same width
  // asserts the register load's consumer did.
  const std::int64_t j = slot_int(slot(st, bt.j_space, bt.j_slot));
  const int hi = static_cast<int>(bt.w_hi * j - bt.k_hi);
  const int lo = static_cast<int>(bt.w_lo * (j - bt.k_lo));
  const BitVector& msg = slot(st, bt.var_space, bt.var_slot).get();
  if (word_slice(hi, lo)) {
    // extend() of the unsigned word: truncate or zero-extend.
    kernel_.schedule_signal(
        bt.data_signal,
        BitVector::from_uint(bt.data_width, msg.slice_uint(hi, lo)));
  } else {
    kernel_.schedule_signal(
        bt.data_signal,
        extend(Scalar{msg.slice(hi, lo), false}, bt.data_width));
  }
  switch (bt.strobe) {
    case BulkTransfer::Strobe::kNone:
      break;
    case BulkTransfer::Strobe::kConst:
      kernel_.schedule_signal(
          bt.strobe_signal,
          extend_word(
              st.prog->consts[static_cast<std::size_t>(bt.strobe_const)],
              bt.strobe_width));
      break;
    case BulkTransfer::Strobe::kParity: {
      // par_mod != 0 was checked at match time (mod-by-zero code stays
      // on the generic path for its lazy error). The parity is a 64-bit
      // signed scalar, so extend() truncates it, or sign-extends it past
      // 64 bits.
      const std::int64_t parity =
          slot_int(slot(st, bt.j2_space, bt.j2_slot)) % bt.par_mod;
      kernel_.schedule_signal(
          bt.strobe_signal,
          bt.strobe_width <= 64
              ? BitVector::from_uint(bt.strobe_width,
                                     static_cast<std::uint64_t>(parity))
              : BitVector::from_int(bt.strobe_width, parity));
      break;
    }
  }
}

void Vm::exec_bulk_recv(ExecState& st, const BulkTransfer& bt) {
  // kLoadSignal + index arithmetic + kStoreSlice, one dispatch.
  const BitVector& data = kernel_.signal_value(bt.data_signal);
  const std::int64_t j = slot_int(slot(st, bt.j_space, bt.j_slot));
  const int hi = static_cast<int>(bt.w_hi * j - bt.k_hi);
  const int lo = static_cast<int>(bt.w_lo * (j - bt.k_lo));
  BitVector& bits = slot(st, bt.var_space, bt.var_slot).scalar_bits();
  if (word_slice(hi, lo) && data.width() <= 64) {
    // extend() of the unsigned signal value: truncate or zero-extend.
    bits.set_slice_uint(hi, lo, data.to_uint());
  } else {
    bits.set_slice(hi, lo, extend(Scalar{data, false}, hi - lo + 1));
  }
}

bool Vm::eval_parked(void* ctx) {
  // Condition programs are loop-free expression code; they reuse the
  // process's register file (no register is live across a suspension, and
  // a parked process executes nothing else).
  ExecState& st = *static_cast<ExecState*>(ctx);
  const CondProgram& cp = *st.parked_cond;
  Vm& vm = *st.vm;
  std::uint64_t unused_ops = 0;
  std::uint64_t unused_arg = 0;
  vm.dispatch<true>(st, st.prog->cond_code.data(), cp.start,
                    cp.start + cp.count, unused_ops, unused_arg);
  // Charge the pre-optimization instruction count: executed_ops is a
  // deterministic report metric and must read identically whether or not
  // the optimizer shrank this condition body.
  vm.run_.executed_ops += cp.ref_ops;
  ++vm.run_.condition_evals;
  return st.regs[cp.result_reg].truthy();
}

template <bool kCond>
Vm::SuspendKind Vm::dispatch(ExecState& st, const Instr* code,
                             std::uint32_t pc, std::uint32_t end,
                             std::uint64_t& ops, std::uint64_t& arg) {
  const ProcProgram& prog = *st.prog;
  // The register file never resizes while a process runs.
  Scalar* const r = st.regs.data();
  for (;;) {
    if constexpr (kCond) {
      if (pc == end) return SuspendKind::kHalt;
    }
    const Instr& in = code[pc];
    ++ops;
    switch (in.op) {
      // ---- expression ops ----
      case Op::kConst:
        r[in.dst] = prog.consts[static_cast<std::size_t>(in.a)];
        ++pc;
        break;
      case Op::kLoadVar: {
        const spec::Value& v = slot(st, static_cast<Space>(in.aux), in.a);
        // Copy-assign into the register in place: one word when narrow.
        r[in.dst].bits = v.get();
        r[in.dst].is_signed = v.type().is_signed();
        ++pc;
        break;
      }
      case Op::kLoadArray: {
        const std::int64_t index = r[in.b].to_int();
        const spec::Value& v = slot(st, static_cast<Space>(in.aux), in.a);
        r[in.dst].bits = v.at(static_cast<int>(index));
        r[in.dst].is_signed = v.type().is_signed();
        ++pc;
        break;
      }
      case Op::kLoadSignal:
        r[in.dst].bits = kernel_.signal_value(static_cast<SignalId>(in.a));
        r[in.dst].is_signed = false;
        ++pc;
        break;
      case Op::kUnary: {
        const auto uop = static_cast<spec::UnaryOp>(in.aux);
        const Scalar& a = r[in.a];
        if (a.bits.width() <= 64) {
          // In-place small-width path; operands read before the aliased
          // destination (dst may equal a) is written.
          Scalar& d = r[in.dst];
          if (uop == spec::UnaryOp::kNot) {
            const int w = a.bits.width();
            const std::uint64_t v = ~a.bits.to_uint();
            const bool sgn = a.is_signed;
            d.bits.assign_uint(w, v);
            d.is_signed = sgn;
          } else if (uop == spec::UnaryOp::kNeg) {
            const std::int64_t x = -a.to_int();
            d.bits.assign_uint(64, static_cast<std::uint64_t>(x));
            d.is_signed = true;
          } else {
            const bool z = a.bits.is_zero();
            d.bits.assign_uint(1, z ? 1 : 0);
            d.is_signed = false;
          }
        } else {
          r[in.dst] = eval_unary_op(uop, a);
        }
        ++pc;
        break;
      }
      case Op::kBinary: {
        const auto op = static_cast<spec::BinaryOp>(in.aux);
        if (!fast_binary(op, r[in.a], r[in.b], r[in.dst])) {
          r[in.dst] = eval_binary_op(op, r[in.a], r[in.b]);
        }
        ++pc;
        break;
      }
      case Op::kSlice: {
        const int hi = static_cast<int>(r[in.b].to_int());
        const int lo = static_cast<int>(r[in.c].to_int());
        slice_into(r[in.dst], r[in.a].bits, hi, lo);
        ++pc;
        break;
      }
      case Op::kToInt: {
        // to_int() raises the same width asserts as the generic path.
        const std::int64_t x = r[in.a].to_int();
        r[in.dst].bits.assign_uint(64, static_cast<std::uint64_t>(x));
        r[in.dst].is_signed = true;
        ++pc;
        break;
      }
      case Op::kTrap:
        IFSYN_ASSERT_MSG(false, prog.traps[static_cast<std::size_t>(in.a)]);
        break;

      // ---- stores ----
      case Op::kStoreVar:
        store_scalar(slot(st, static_cast<Space>(in.aux), in.a), r[in.b],
                     in.c);
        ++pc;
        break;
      case Op::kStoreArrayElem: {
        const int index = static_cast<int>(r[in.b].to_int());
        spec::Value& v = slot(st, static_cast<Space>(in.aux), in.a);
        v.set_at(index, extend(r[in.c], in.d));
        ++pc;
        break;
      }
      case Op::kStoreSlice: {
        // In place: set_slice asserts before it writes, so a failing
        // store leaves the variable as it was.
        BitVector& bits =
            slot(st, static_cast<Space>(in.aux), in.a).scalar_bits();
        const int hi = static_cast<int>(r[in.b].to_int());
        const int lo = static_cast<int>(r[in.c].to_int());
        const Scalar& s = r[in.dst];
        if (word_slice(hi, lo) && s.bits.width() <= 64) {
          bits.set_slice_uint(hi, lo, static_cast<std::uint64_t>(s.to_int()));
        } else {
          bits.set_slice(hi, lo, extend(s, hi - lo + 1));
        }
        ++pc;
        break;
      }
      case Op::kStoreArraySlice: {
        const int index = static_cast<int>(r[in.b].to_int());
        spec::Value& v = slot(st, static_cast<Space>(in.aux), in.a);
        BitVector elem = v.at(index);
        const int hi = static_cast<int>(r[in.c].to_int());
        const int lo = static_cast<int>(r[in.d].to_int());
        elem.set_slice(hi, lo, extend(r[in.dst], hi - lo + 1));
        v.set_at(index, std::move(elem));
        ++pc;
        break;
      }
      case Op::kSaveVar:
        slot(st, static_cast<Space>(in.aux), in.a) =
            slot(st, static_cast<Space>(in.aux), in.b);
        ++pc;
        break;
      case Op::kRestoreVar:
        slot(st, static_cast<Space>(in.aux), in.a) =
            std::move(slot(st, static_cast<Space>(in.aux), in.b));
        ++pc;
        break;
      case Op::kSignalAssign:
        kernel_.schedule_signal(static_cast<SignalId>(in.a),
                                extend_word(r[in.c], in.b));
        ++pc;
        break;

      // ---- control flow ----
      case Op::kJump:
        pc = static_cast<std::uint32_t>(in.a);
        break;
      case Op::kJumpIfFalse:
        pc = r[in.a].truthy() ? pc + 1 : static_cast<std::uint32_t>(in.b);
        break;
      case Op::kLoopTest: {
        const Space space = static_cast<Space>(in.aux);
        // The hidden counter and limit are 64-bit integers.
        const std::int64_t counter = slot(st, space, in.a).get().to_int();
        const std::int64_t limit = slot(st, space, in.b).get().to_int();
        if (counter > limit) {
          pc = static_cast<std::uint32_t>(in.c);
          break;
        }
        // Full Value replacement of the loop variable, like the AST
        // engine's insert_or_assign: the slot's runtime type becomes
        // integer(32) for the loop's extent. From the second iteration on
        // the slot already is integer(32), so only the payload word
        // changes.
        static const spec::Type kInt32 = spec::Type::integer();
        spec::Value& v = slot(st, space, in.d);
        if (v.type() == kInt32) {
          v.scalar_bits().assign_uint(32, static_cast<std::uint64_t>(counter));
        } else {
          v = spec::Value::integer(counter);
        }
        ++pc;
        break;
      }
      case Op::kLoopInc: {
        BitVector& counter =
            slot(st, static_cast<Space>(in.aux), in.a).scalar_bits();
        counter.assign_uint(64,
                            static_cast<std::uint64_t>(counter.to_int() + 1));
        pc = static_cast<std::uint32_t>(in.b);
        break;
      }
      case Op::kCall:
        st.pc = pc;
        do_call(st, prog.callsites[static_cast<std::size_t>(in.a)]);
        pc = st.pc;
        break;
      case Op::kLoadRet: {
        const spec::Value& v = st.ret_frame[static_cast<std::size_t>(in.a)];
        r[in.dst].bits = v.get();
        r[in.dst].is_signed = v.type().is_signed();
        ++pc;
        break;
      }
      case Op::kReturn:
        do_return(st);
        pc = st.pc;
        break;
      case Op::kHalt:
        st.pc = pc;
        return SuspendKind::kHalt;

      // ---- kernel suspensions ----
      case Op::kWaitFor: {
        const std::int64_t cycles = r[in.a].to_int();
        IFSYN_ASSERT_MSG(cycles >= 0, "negative wait duration");
        st.pc = pc + 1;
        arg = static_cast<std::uint64_t>(cycles);
        return SuspendKind::kWaitFor;
      }
      case Op::kWaitOn:
        st.pc = pc + 1;
        arg = static_cast<std::uint64_t>(in.a);
        return SuspendKind::kWaitOn;
      case Op::kWaitUntil:
        st.pc = pc + 1;
        arg = static_cast<std::uint64_t>(in.a);
        return SuspendKind::kWaitUntil;
      case Op::kAcquireBus:
        st.pc = pc + 1;
        arg = static_cast<std::uint64_t>(in.a);
        return SuspendKind::kAcquireBus;
      case Op::kReleaseBus:
        kernel_.release_bus(static_cast<BusId>(in.a));
        ++pc;
        break;

      // ---- superinstructions ----
      // Each charges `ops` with the dispatch count of the sequence it
      // replaced (the ++ops above contributed 1), keeping
      // sim.vm.executed_ops byte-identical to the unoptimized VM.
      case Op::kCmpBranch: {
        const auto bo = static_cast<spec::BinaryOp>(in.aux);
        if (!fast_binary(bo, r[in.a], r[in.b], r[in.dst])) {
          r[in.dst] = eval_binary_op(bo, r[in.a], r[in.b]);
        }
        ++ops;  // kBinary + kJumpIfFalse
        pc = r[in.dst].truthy() ? pc + 1 : static_cast<std::uint32_t>(in.c);
        break;
      }
      case Op::kWaitForImm: {
        // to_int() on the pool entry raises the same asserts the
        // replaced kToInt did on its register copy.
        const std::int64_t cycles =
            prog.consts[static_cast<std::size_t>(in.a)].to_int();
        IFSYN_ASSERT_MSG(cycles >= 0, "negative wait duration");
        ops += 2;  // kConst + kToInt + kWaitFor
        st.pc = pc + 1;
        arg = static_cast<std::uint64_t>(cycles);
        return SuspendKind::kWaitFor;
      }
      case Op::kSignalAssignImm:
        // kConst + kSignalAssign; extend_word sees the identical Scalar
        // the register copy held, so the scheduled bits are unchanged.
        kernel_.schedule_signal(
            static_cast<SignalId>(in.a),
            extend_word(prog.consts[static_cast<std::size_t>(in.c)], in.b));
        ++ops;
        ++pc;
        break;
      case Op::kSliceImm: {
        // kConst + kConst + kSlice. to_int() runs on the pool entries the
        // registers would have copied — same values, same width asserts.
        const int hi = static_cast<int>(
            prog.consts[static_cast<std::size_t>(in.b)].to_int());
        const int lo = static_cast<int>(
            prog.consts[static_cast<std::size_t>(in.c)].to_int());
        slice_into(r[in.dst], r[in.a].bits, hi, lo);
        ops += 2;
        ++pc;
        break;
      }
      case Op::kBinaryFused: {
        // Operand loads + kBinary (+ optional kStoreVar) in one dispatch.
        // Each stage reproduces the corresponding case above; only the
        // scratch-register writes of the operand loads are elided (dead
        // by the compiler's write-before-read discipline).
        const FusedBinary& f = prog.fusions[static_cast<std::size_t>(in.a)];
        const auto load = [&](const FusedOperand& o, Scalar& out) {
          switch (o.kind) {
            case FusedOperand::Kind::kSlot: {
              const spec::Value& v = slot(st, o.space, o.index);
              out.bits = v.get();
              out.is_signed = v.type().is_signed();
              break;
            }
            case FusedOperand::Kind::kConst:
              out = prog.consts[static_cast<std::size_t>(o.index)];
              break;
            case FusedOperand::Kind::kSignal:
              out.bits = kernel_.signal_value(static_cast<SignalId>(o.index));
              out.is_signed = false;
              break;
          }
        };
        Scalar lhs, rhs;
        load(f.lhs, lhs);
        load(f.rhs, rhs);
        Scalar& d = r[f.dst_reg];
        if (!fast_binary(f.op, lhs, rhs, d)) d = eval_binary_op(f.op, lhs, rhs);
        if (f.has_store) {
          store_scalar(slot(st, f.store_space, f.store_slot), d,
                       f.store_width);
        }
        ops += f.weight - 1;
        ++pc;
        break;
      }
      case Op::kBulkSend: {
        const BulkTransfer& bt = prog.bulks[static_cast<std::size_t>(in.a)];
        exec_bulk_send(st, bt);
        ops += bt.weight - 1;
        ++run_.bulk_ops;
        ++pc;
        break;
      }
      case Op::kBulkRecv: {
        const BulkTransfer& bt = prog.bulks[static_cast<std::size_t>(in.a)];
        exec_bulk_recv(st, bt);
        ops += bt.weight - 1;
        ++run_.bulk_ops;
        ++pc;
        break;
      }
    }
  }
}

// NOTE on coroutine style: every co_await below awaits a *named local*,
// never a prvalue. GCC 12 miscompiles non-trivially-destructible
// temporaries inside co_await expressions (double destruction of the
// awaiter temporary); hoisting the operand into a local sidesteps the bug
// — same convention as sim/interpreter.cpp.
SimTask Vm::run_process(ExecState& st) {
  // The dispatch loop counts in a register-resident local, added to the
  // run-local total at every suspension and at halt.
  for (;;) {
    std::uint64_t ops = 0;
    std::uint64_t arg = 0;
    const SuspendKind kind =
        dispatch<false>(st, st.prog->code.data(), st.pc, 0, ops, arg);
    run_.executed_ops += ops;
    switch (kind) {
      case SuspendKind::kHalt:
        co_return;
      case SuspendKind::kWaitFor: {
        auto awaiter = kernel_.wait_for(arg);
        co_await awaiter;
        break;
      }
      case SuspendKind::kWaitOn: {
        const std::vector<SignalId>& ids =
            st.prog->wait_sets[static_cast<std::size_t>(arg)];
        // The span stays valid across the suspension: wait_sets lives in
        // the compiled program, which outlives every run.
        auto awaiter = kernel_.wait_on(std::span<const SignalId>(ids));
        co_await awaiter;
        break;
      }
      case SuspendKind::kWaitUntil: {
        const CondProgram& cp =
            st.prog->conds[static_cast<std::size_t>(arg)];
        // The read set lives in the compiled program, which outlives every
        // run, so the span stays valid across the suspension.
        std::optional<std::span<const SignalId>> reads;
        if (cp.sensitized) {
          reads = std::span<const SignalId>(st.prog->cond_reads)
                      .subspan(cp.reads_start, cp.reads_count);
        }
        // The kernel keeps {eval_parked, &st}: parking copies no state.
        st.parked_cond = &cp;
        auto awaiter = kernel_.wait_until(&Vm::eval_parked, &st, reads);
        co_await awaiter;
        break;
      }
      case SuspendKind::kAcquireBus: {
        auto awaiter = kernel_.acquire_bus(static_cast<BusId>(arg));
        co_await awaiter;
        break;
      }
    }
  }
}

}  // namespace ifsyn::sim::bytecode
