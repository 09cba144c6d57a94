// ifsyn/sim/interpreter.hpp
//
// Executes a specification (spec::System) on the discrete-event kernel.
//
// This is what makes the paper's central claim -- "protocol generation
// results in a refined system specification that is simulatable" --
// operational: both the original spec (processes directly reading/writing
// shared variables) and the refined spec (handshakes over the generated
// bus signal) run through this same interpreter, so functional equivalence
// can be checked by diffing variable state and process results afterwards.
//
// Execution model:
//   - System-level variables live in a global store (shared-memory
//     semantics for the original spec; the refined spec only touches a
//     remote variable from its server process).
//   - Each process has a call stack of frames (process locals, then one
//     frame per active procedure call). Name lookup: innermost frame,
//     then process locals, then globals.
//   - Statements execute in zero simulated time except `wait for`;
//     specs model computation delay with explicit waits, and the
//     generated protocols contain the per-word waits that give a
//     handshake its 2-cycles-per-word cost (Eq. 2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/scalar.hpp"
#include "spec/system.hpp"
#include "util/ptr_map.hpp"

namespace ifsyn::sim {

namespace bytecode {
class Vm;
}

/// Which execution engine runs the spec's processes.
///
/// kVm (default) compiles every process to register bytecode once at setup
/// and runs a dispatch loop (sim/bytecode/); kAst walks the statement/
/// expression trees directly — slower, but structurally close to the IR,
/// so it serves as the reference the VM is differentially fuzzed against.
enum class Engine {
  kVm,
  kAst,
};

/// "vm" / "ast" — the spelling IFSYN_SIM_ENGINE uses, also
/// surfaced by serve /stats and the sim.engine gauge.
const char* engine_name(Engine engine);

/// Engine selected by the IFSYN_SIM_ENGINE environment variable: "ast"
/// picks the AST reference engine; "vm", empty or unset the bytecode VM.
/// Any other value picks the VM and, when `bad_value` is non-null,
/// reports the unrecognized string through it (empty = the value was
/// recognized) so the caller can emit a structured warning —
/// Interpreter::setup does. Read per call — tests toggle it with setenv.
Engine engine_from_env(std::string* bad_value = nullptr);

class Interpreter {
 public:
  /// Binds the interpreter to a system and a kernel, with the engine taken
  /// from IFSYN_SIM_ENGINE. Both must outlive the interpreter and the
  /// kernel's run.
  Interpreter(const spec::System& system, Kernel& kernel);

  /// Same, with an explicit engine choice.
  Interpreter(const spec::System& system, Kernel& kernel, Engine engine);

  ~Interpreter();

  Engine engine() const { return engine_; }

  /// Declare the system's signals, bus locks and processes on the kernel
  /// and initialize variable storage. Call once before Kernel::run.
  Status setup();

  /// Read a system-level variable's current value (typically after run).
  const spec::Value& value_of(const std::string& variable) const;

  /// Overwrite a system-level variable (e.g. to inject test stimuli).
  void set_value(const std::string& variable, spec::Value value);

  /// The bytecode engine behind this interpreter, for artifact
  /// introspection (e.g. tests asserting on the optimizer's rewrites).
  /// Engaged after setup() when engine() == kVm; nullptr for kAst.
  const bytecode::Vm* vm() const { return vm_.get(); }

 private:
  struct Frame {
    std::map<std::string, spec::Value> vars;
  };
  struct ProcState {
    std::vector<Frame> frames;  // [0] = process locals
  };

  // ---- name resolution ----
  spec::Value* lookup(ProcState& state, const std::string& name);
  spec::Value& lookup_or_fail(ProcState& state, const std::string& name);

  // ---- expression evaluation (synchronous; no waits inside) ----
  Scalar eval(const spec::Expr& expr, ProcState& state);
  std::int64_t eval_int(const spec::Expr& expr, ProcState& state);

  // ---- statement execution (coroutines) ----
  SimTask run_process(const spec::Process& process, ProcState& state);
  /// Executes a statement list. Statements dispatch inline (one coroutine
  /// per block, not per statement); branch/loop bodies and procedure
  /// calls recurse through child tasks.
  SimTask exec_block(const spec::Block& block, ProcState& state);
  SimTask exec_call(const spec::ProcCall& call, ProcState& state);

  void store(ProcState& state, const spec::LValue& target, Scalar value);
  void exec_signal_assign(const spec::SignalAssign& sa, ProcState& state);

  // ---- elaboration-time interning (setup pre-pass) ----
  // Every signal/bus name in the spec is resolved to its dense kernel id
  // once, keyed by AST node address (nodes are shared_ptr-held and stable
  // for the system's lifetime), so the execution hot paths never do string
  // lookups. Unknown names are deliberately left uncached: the eval-time
  // name fallback then reproduces the original lazy error timing for
  // references in code that never executes.
  struct AssignSlot {
    SignalId id = kInvalidSignalId;
    int width = 0;
  };
  void intern_block(const spec::Block& block);
  void intern_expr(const spec::Expr& expr);
  void intern_lvalue(const spec::LValue& lv);

  const spec::System& system_;
  Kernel& kernel_;
  Engine engine_ = Engine::kVm;
  /// Unrecognized IFSYN_SIM_ENGINE value captured at construction;
  /// setup() turns it into a structured warning (it has the obs hooks).
  std::string bad_engine_env_;
  /// Engaged iff engine_ == kVm after setup(); owns compiled programs and
  /// all VM-side storage (globals live in the Vm then, not in globals_).
  std::unique_ptr<bytecode::Vm> vm_;
  std::map<std::string, spec::Value> globals_;
  std::map<std::string, ProcState> proc_states_;
  PtrMap<SignalId> signal_refs_;
  PtrMap<AssignSlot> assign_slots_;
  PtrMap<std::vector<SignalId>> wait_sets_;
  PtrMap<BusId> bus_refs_;
};

/// Convenience: set up a kernel+interpreter for `system`, run it, and
/// return the result together with the interpreter (for state inspection).
/// Kernel and Interpreter are heap-held because the interpreter's process
/// closures are bound to the kernel's address.
struct SimulationRun {
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Interpreter> interpreter;
  SimResult result;
};

/// Simulate a system to quiescence. `trace` enables waveform capture.
/// `obs` (optional) attaches a metrics registry to the kernel; counters
/// land under the "sim." prefix (see Kernel::set_obs). `engine` defaults
/// to the IFSYN_SIM_ENGINE selection (bytecode VM unless overridden).
SimulationRun simulate(const spec::System& system,
                       std::uint64_t max_time = 1'000'000,
                       bool trace = false,
                       const obs::ObsContext& obs = {},
                       Engine engine = engine_from_env());

}  // namespace ifsyn::sim
