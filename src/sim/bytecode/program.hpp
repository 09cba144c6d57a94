// ifsyn/sim/bytecode/program.hpp
//
// The register bytecode the simulation data plane compiles specs into.
//
// One ProcProgram per process holds a flat instruction array covering the
// process body plus a specialized copy of every procedure the process can
// reach (specialization resolves free names against *that process's*
// locals, so operand slots are plain indices — no runtime name lookup).
// All string/name resolution, signal/bus interning, constant folding and
// wait-set construction happen once in the compiler (compiler.cpp); the
// VM (vm.cpp) then executes straight-line code from a resumable program
// counter with one coroutine per process.
//
// Design notes (full ISA reference in DESIGN.md Sec. 10):
//   - Register machine: expression temporaries live in a per-process
//     Scalar register file. Registers are never live across a kernel
//     suspension or a procedure call, so the file needs no save/restore.
//   - Three operand spaces: kGlobal (system variables, shared), kProcess
//     (process locals, persist across calls within one activation) and
//     kFrame (current procedure activation).
//   - Lazy errors: anything the AST engine only reports when the faulty
//     statement *executes* (undeclared variables, unknown signals, calls
//     to missing procedures) compiles to a kTrap carrying the message, so
//     error timing matches the reference engine.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/scalar.hpp"
#include "spec/type.hpp"
#include "spec/value.hpp"

namespace ifsyn::sim::bytecode {

enum class Op : std::uint8_t {
  // ---- expression ops (also legal inside condition programs) ----
  kConst,          ///< r[dst] = consts[a]
  kLoadVar,        ///< r[dst] = scalar at (aux:space, a:slot)
  kLoadArray,      ///< r[dst] = (aux:space, a:slot)[ r[b].to_int() ]
  kLoadSignal,     ///< r[dst] = value of SignalId a (unsigned)
  kUnary,          ///< r[dst] = unary(aux:UnaryOp, r[a])
  kBinary,         ///< r[dst] = binary(aux:BinaryOp, r[a], r[b])
  kSlice,          ///< r[dst] = r[a].bits.slice(r[b], r[c])
  kToInt,          ///< r[dst] = make_int(r[a].to_int()) — eval_int semantics
  kTrap,           ///< throw InternalError(traps[a]) — lazy error sites

  // ---- stores ----
  kStoreVar,       ///< (aux,a) .set(extend(r[b], c:width))
  kStoreArrayElem, ///< (aux,a)[r[b]] = extend(r[c], d:width)
  kStoreSlice,     ///< (aux,a).bits(r[b] downto r[c]) = r[dst]
  kStoreArraySlice,///< (aux,a)[r[b]].bits(r[c] downto r[d]) = r[dst]
  kSaveVar,        ///< (aux,a) = copy of (aux,b) — loop shadow save
  kRestoreVar,     ///< (aux,a) = move (aux,b)   — loop shadow restore
  kSignalAssign,   ///< schedule SignalId a <= extend(r[c], b:width)

  // ---- control flow ----
  kJump,           ///< pc = a
  kJumpIfFalse,    ///< pc = r[a].truthy() ? pc+1 : b
  kLoopTest,       ///< fused for-loop head: counter (aux,a) > limit (aux,b)
                   ///< ? pc = c : store loop var (aux,d) = Value::integer(
                   ///< counter) and fall through to the body
  kLoopInc,        ///< fused for-loop back edge: 64-bit counter (aux,a) += 1,
                   ///< pc = b
  kCall,           ///< enter callsites[a] (push return frame, copy-in)
  kLoadRet,        ///< r[dst] = scalar of ret_frame[a] (post-call copy-out)
  kReturn,         ///< pop call frame, resume at saved pc
  kHalt,           ///< process body complete (co_return)

  // ---- kernel suspensions ----
  kWaitFor,        ///< co_await wait_for(r[a].to_int()); asserts >= 0
  kWaitOn,         ///< co_await wait_on(wait_sets[a])
  kWaitUntil,      ///< co_await wait_until(eval of conds[a])
  kAcquireBus,     ///< co_await acquire_bus(BusId a)
  kReleaseBus,     ///< release_bus(BusId a)

  // ---- superinstructions (emitted only by the optimizer pass) ----
  // The compiler never emits these; optimizer.cpp rewrites recognized
  // instruction sequences into them post-compile (IFSYN_SIM_OPT=1). Every
  // superinstruction performs the same architectural writes and raises
  // the same errors as the sequence it replaces, and carries the
  // sequence's original dispatch count as a weight so sim.vm.executed_ops
  // stays byte-identical to the unoptimized VM (DESIGN.md Sec. 14).
  kCmpBranch,      ///< r[dst] = binary(aux, r[a], r[b]);
                   ///< pc = r[dst].truthy() ? pc+1 : c  (kBinary+kJumpIfFalse)
  kWaitForImm,     ///< co_await wait_for(consts[a].to_int())
                   ///< (kConst+kToInt+kWaitFor)
  kSignalAssignImm,///< schedule SignalId a <= extend(consts[c], b:width)
                   ///< (kConst+kSignalAssign)
  kSliceImm,       ///< r[dst] = r[a].bits.slice(consts[b], consts[c])
                   ///< (kConst+kConst+kSlice with folded bounds)
  kBinaryFused,    ///< three-address form: fusions[a] (operand loads +
                   ///< kBinary + optional kStoreVar in one dispatch)
  kBulkSend,       ///< bulks[a]: one P3 sender word — DATA word-slice
                   ///< assign + strobe/handshake raise — per dispatch
  kBulkRecv,       ///< bulks[a]: one P3 receiver word — DATA capture into
                   ///< the target's word slice — per dispatch
};

/// Which storage a slot operand indexes.
enum class Space : std::uint8_t {
  kGlobal,   ///< system-level variables (shared by all processes)
  kProcess,  ///< process-local frame (persists across calls)
  kFrame,    ///< current procedure activation frame
};

/// One instruction. Fixed-width and deliberately roomy: `aux` carries the
/// operand space or the packed Unary/BinaryOp, `dst` a destination (or
/// value-source) register, and a..d are slot indices, register numbers,
/// widths, pool indices or jump targets depending on the op (see Op docs).
struct Instr {
  Op op = Op::kHalt;
  std::uint8_t aux = 0;
  std::uint16_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
};

/// Static description of one frame slot; frames are materialized per
/// activation from this layout. `init` is empty for zero-initialization
/// and for the compiler's hidden slots (loop counters/limits/saves).
struct SlotInfo {
  spec::Type type;
  std::optional<spec::Value> init;
  std::string name;  ///< declared name, or "<hidden>" — debugging only
};

struct FrameLayout {
  std::vector<SlotInfo> slots;
};

/// One lowered `ProcCall`: where to jump, which frame layout to
/// materialize, and how to copy the already-evaluated `in` actuals
/// (sitting in registers) into the new frame's parameter slots.
struct CallSite {
  std::uint32_t entry_pc = 0;
  std::uint32_t frame_layout = 0;
  struct InArg {
    std::uint32_t slot;  ///< parameter slot in the callee frame
    std::uint16_t reg;   ///< caller register holding the evaluated actual
    int width;           ///< parameter scalar width (extend target)
  };
  std::vector<InArg> in_args;
};

/// A `wait until` condition lowered into `cond_code`: the VM evaluates
/// instructions [start, start+count) and reads the result register.
///
/// A `sensitized` condition hands the kernel its signal read set,
/// cond_reads[reads_start, reads_start+reads_count): the kLoadSignal ids
/// of the unoptimized body, without repeats. The kernel then re-runs it
/// only after a commit that changes one of them, which is exact because
/// its other inputs (constants, process and frame slots) cannot change
/// while the process is parked. The compiler leaves a condition
/// unsensitized, re-run after every commit like the AST engine's
/// condition lambda, when it reads a system variable (another process
/// may write it) or contains an op whose error depends on computed
/// values: a trap, an array load, a call, a slice, or a division or
/// modulo whose divisor is not a nonzero constant. Those keep the
/// every-commit error timing and order.
struct CondProgram {
  std::uint32_t start = 0;
  std::uint32_t count = 0;
  std::uint16_t result_reg = 0;
  bool sensitized = false;
  /// Pre-optimization instruction count. eval_parked charges this to
  /// sim.vm.executed_ops (not `count`) so the counter reads identically
  /// whether or not the optimizer shrank the condition body.
  std::uint32_t ref_ops = 0;
  std::uint32_t reads_start = 0;
  std::uint32_t reads_count = 0;
};

/// Descriptor for one kBulkSend/kBulkRecv: a whole P3 transfer-loop word
/// in one dispatch. The word slice bounds are the generated procedures'
/// index arithmetic, (w_hi*J - k_hi downto w_lo*(J - k_lo)), evaluated
/// with the exact int64 semantics the replaced kConst/kLoadVar/kBinary
/// sequence had (constants captured from the pool, J read from its slot).
struct BulkTransfer {
  Space var_space = Space::kProcess;  ///< message variable (src or dst)
  std::int32_t var_slot = 0;
  Space j_space = Space::kProcess;    ///< loop index for the slice bounds
  std::int32_t j_slot = 0;
  std::int64_t w_hi = 0, k_hi = 0;    ///< hi = w_hi * J - k_hi
  std::int64_t w_lo = 0, k_lo = 0;    ///< lo = w_lo * (J - k_lo)
  SignalId data_signal = 0;
  int data_width = 0;                 ///< assignment width (send only)

  /// Send-side strobe stage fused into the same dispatch.
  enum class Strobe : std::uint8_t {
    kNone,    ///< no strobe stage (kBulkRecv, bare DATA assign)
    kConst,   ///< strobe <= consts[strobe_const] (handshake START raise)
    kParity,  ///< strobe <= J2 mod par_mod (strobe-protocol word parity)
  };
  Strobe strobe = Strobe::kNone;
  SignalId strobe_signal = 0;
  int strobe_width = 0;
  Space j2_space = Space::kProcess;   ///< parity index (kParity)
  std::int32_t j2_slot = 0;
  std::int64_t par_mod = 2;           ///< parity modulus (matcher rejects 0)
  std::int32_t strobe_const = 0;      ///< const pool index (kConst)

  std::uint32_t weight = 0;  ///< dispatch count of the replaced sequence
};

/// Descriptor for one kBinaryFused three-address operation: two operand
/// loads + kBinary (+ optional kStoreVar) in one dispatch.
struct FusedOperand {
  enum class Kind : std::uint8_t { kSlot, kConst, kSignal };
  Kind kind = Kind::kConst;
  Space space = Space::kProcess;  ///< kSlot
  std::int32_t index = 0;         ///< slot / const pool index / SignalId
};

struct FusedBinary {
  spec::BinaryOp op{};
  FusedOperand lhs, rhs;
  std::uint16_t dst_reg = 0;  ///< result register (always written)
  bool has_store = false;     ///< fused kStoreVar of the result
  Space store_space = Space::kProcess;
  std::int32_t store_slot = 0;
  std::int32_t store_width = 0;
  std::uint32_t weight = 0;   ///< dispatch count of the replaced sequence
};

/// Everything needed to execute one process: code, pools, frame layouts.
struct ProcProgram {
  std::string process_name;
  bool restarts = false;

  std::vector<Instr> code;       ///< body + specialized procedures
  std::uint32_t entry = 0;       ///< pc of the process body
  std::vector<Instr> cond_code;  ///< wait-until condition programs
  std::vector<SignalId> cond_reads;  ///< sensitized conditions' read sets

  std::vector<Scalar> consts;
  std::vector<std::vector<SignalId>> wait_sets;
  std::vector<CallSite> callsites;
  std::vector<CondProgram> conds;
  std::vector<std::string> traps;

  /// [0] is the process-local frame; the rest are procedure frames.
  std::vector<FrameLayout> frame_layouts;

  /// Superinstruction side tables (filled by the optimizer pass).
  std::vector<BulkTransfer> bulks;
  std::vector<FusedBinary> fusions;

  std::uint16_t num_regs = 0;
};

/// How aggressively the post-compile optimizer (optimizer.hpp) rewrote a
/// CompiledSystem. Part of the artifact so the ProgramCache can key on it.
enum class OptLevel : std::uint8_t {
  kNone = 0,  ///< compiler output verbatim (IFSYN_SIM_OPT=0)
  kFull = 1,  ///< superinstructions + peephole fusions (default)
};

/// What the optimizer did to one CompiledSystem. Deterministic per
/// artifact, but level-dependent — so these surface only through
/// wall-clock-classed obs counters (sim.vm.opt.*), never in the
/// deterministic report tables.
struct OptStats {
  std::uint64_t patterns_matched = 0;
  std::uint64_t instructions_eliminated = 0;
};

/// Compiled form of a whole system: the shared global-variable layout plus
/// one program per process (in system declaration order).
struct CompiledSystem {
  std::vector<SlotInfo> global_slots;           ///< system variable order
  std::map<std::string, std::uint32_t> global_index;
  std::vector<ProcProgram> processes;
  /// Pre-optimization code + cond_code size. Stays the compiler's count
  /// even after optimization, so sim.vm.compiled_instructions — a
  /// deterministic, report-visible metric — is identical across opt
  /// levels. The post-rewrite size is optimized_instructions.
  std::uint64_t total_instructions = 0;
  std::uint64_t optimized_instructions = 0;
  OptLevel opt_level = OptLevel::kNone;
  OptStats opt;
};

}  // namespace ifsyn::sim::bytecode
