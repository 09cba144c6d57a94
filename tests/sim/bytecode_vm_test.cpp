// Bytecode engine tests: the compiler's lowering (constant folding, wait
// sets, lazy traps, procedure specialization) and the VM's execution
// semantics, checked both directly and against the AST reference engine.
#include "sim/bytecode/vm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "scoped_env.hpp"
#include "sim/bytecode/compiler.hpp"
#include "sim/interpreter.hpp"
#include "spec/system.hpp"
#include "suite/fig3_example.hpp"
#include "util/assert.hpp"

namespace ifsyn::sim {
namespace {

using namespace spec;

SimulationRun run_body(std::vector<Variable> vars, Block body,
                       std::vector<Variable> locals = {},
                       Engine engine = Engine::kVm) {
  System system("t");
  for (auto& v : vars) system.add_variable(std::move(v));
  Process p;
  p.name = "main";
  p.locals = std::move(locals);
  p.body = std::move(body);
  system.add_process(std::move(p));
  return simulate(system, 1'000'000, false, {}, engine);
}

// ---- engine selection ------------------------------------------------------

TEST(EngineSelectionTest, EnvVariablePicksEngine) {
  ScopedEnv engine("IFSYN_SIM_ENGINE", nullptr);
  EXPECT_EQ(engine_from_env(), Engine::kVm);
  engine.set("ast");
  EXPECT_EQ(engine_from_env(), Engine::kAst);
  engine.set("vm");
  EXPECT_EQ(engine_from_env(), Engine::kVm);
}

TEST(EngineSelectionTest, InterpreterReportsItsEngine) {
  System system("t");
  Kernel k1, k2;
  EXPECT_EQ(Interpreter(system, k1, Engine::kVm).engine(), Engine::kVm);
  EXPECT_EQ(Interpreter(system, k2, Engine::kAst).engine(), Engine::kAst);
}

// "native" named an engine that no longer exists; a stale setting must
// run the VM and say so, exactly like any other unknown spelling.
TEST(EngineSelectionTest, UnknownEngineEnvWarnsAndRunsVm) {
  for (const char* value : {"turbo", "native"}) {
    SCOPED_TRACE(value);
    ScopedEnv engine_env("IFSYN_SIM_ENGINE", value);

    std::string bad;
    EXPECT_EQ(engine_from_env(&bad), Engine::kVm);
    EXPECT_EQ(bad, value);

    const System sys = suite::make_fig3_system();
    obs::MetricsRegistry metrics;
    obs::EventLog log;
    // Default engine argument — the path every production caller takes.
    SimulationRun run = simulate(sys, 20'000'000, false,
                                 obs::ObsContext{&metrics, nullptr, nullptr,
                                                 &log});
    ASSERT_TRUE(run.result.status.is_ok());
    EXPECT_EQ(run.interpreter->engine(), Engine::kVm);
    bool warned = false;
    for (const auto& e : log.recent()) {
      if (e.severity != obs::Severity::kWarn || e.component != "sim") continue;
      for (const auto& [k, v] : e.fields) {
        if (k == "value" && v == value) warned = true;
      }
    }
    EXPECT_TRUE(warned) << log.to_jsonl();
  }
}

TEST(EngineSelectionTest, RecognizedEngineValuesDoNotWarn) {
  for (const char* value : {"vm", "ast", ""}) {
    SCOPED_TRACE(value);
    ScopedEnv engine_env("IFSYN_SIM_ENGINE", value);
    std::string bad = "sentinel";
    (void)engine_from_env(&bad);
    EXPECT_EQ(bad, "");
  }
}

// ---- compiler structure ----------------------------------------------------

TEST(BytecodeCompilerTest, FoldsConstantExpressions) {
  // (6*7+0) is compile-time constant: the body lowers to a single kConst
  // feeding the store, not a mul/add chain.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {assign("X", add(mul(lit(6), lit(7)), lit(0)))};
  system.add_process(std::move(p));

  Kernel kernel;
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  ASSERT_EQ(cs.processes.size(), 1u);
  const bytecode::ProcProgram& prog = cs.processes[0];
  int consts = 0, binaries = 0;
  for (const auto& in : prog.code) {
    if (in.op == bytecode::Op::kConst) ++consts;
    if (in.op == bytecode::Op::kBinary) ++binaries;
  }
  EXPECT_EQ(consts, 1);
  EXPECT_EQ(binaries, 0);
  ASSERT_EQ(prog.consts.size(), 1u);
  EXPECT_EQ(prog.consts[0].to_int(), 42);
}

TEST(BytecodeCompilerTest, NeverFoldsDivisionByZero) {
  // 1/0 must stay a runtime error (lazy, only when executed) — folding it
  // would turn a dead-branch bug into a compile failure.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {if_stmt(eq(lit(1), lit(2)),
                    {assign("X", spec::div(lit(1), lit(0)))})};
  system.add_process(std::move(p));

  Kernel kernel;
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  int binaries = 0;
  for (const auto& in : cs.processes[0].code) {
    if (in.op == bytecode::Op::kBinary) ++binaries;
  }
  EXPECT_EQ(binaries, 1) << "div-by-zero must remain as runtime code";

  // And the guarded branch never executes, so the run succeeds.
  auto run = run_body({Variable("X", Type::integer(32))},
                      {if_stmt(eq(lit(1), lit(2)),
                               {assign("X", spec::div(lit(1), lit(0)))})});
  EXPECT_TRUE(run.result.status.is_ok());
}

TEST(BytecodeCompilerTest, UndeclaredVariableLowersToLazyTrap) {
  // Same lazy timing as the AST engine: compiling succeeds, running the
  // statement throws with the reference engine's message.
  auto ok = run_body({Variable("X", Type::integer(32))},
                     {if_stmt(eq(lit(1), lit(2)), {assign("X", var("NOPE"))})});
  EXPECT_TRUE(ok.result.status.is_ok());

  auto run = run_body({Variable("X", Type::integer(32))},
                      {assign("X", var("NOPE"))});
  EXPECT_FALSE(run.result.status.is_ok());
  EXPECT_NE(run.result.status.message().find(
                "reference to undeclared variable 'NOPE'"),
            std::string::npos)
      << run.result.status;
}

TEST(BytecodeCompilerTest, PrecomputesWaitSets) {
  System system("t");
  Signal sig;
  sig.name = "B";
  sig.fields = {{"START", 1}, {"DATA", 8}};
  system.add_signal(std::move(sig));
  Process p;
  p.name = "main";
  p.body = {wait_on({{"B", "START"}})};
  system.add_process(std::move(p));

  Kernel kernel;
  for (const auto& s : system.signals()) {
    for (const auto& f : s->fields) {
      kernel.add_signal_field(FieldKey{s->name, f.name}, BitVector(f.width));
    }
  }
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  ASSERT_EQ(cs.processes[0].wait_sets.size(), 1u);
  ASSERT_EQ(cs.processes[0].wait_sets[0].size(), 1u);
  EXPECT_EQ(cs.processes[0].wait_sets[0][0],
            kernel.signal_id(FieldKey{"B", "START"}));
}

TEST(BytecodeCompilerTest, SpecializesProceduresPerProcess) {
  // INC resolves its free name "BASE" against each calling process's
  // locals, so each process's program carries its own specialized copy.
  System system("t");
  system.add_variable(Variable("R0", Type::integer(32)));
  system.add_variable(Variable("R1", Type::integer(32)));
  Procedure inc;
  inc.name = "INC";
  inc.params = {{"OUT_V", ParamDir::kOut, Type::integer(32)}};
  inc.body = {assign("OUT_V", add(var("BASE"), lit(1)))};
  system.add_procedure(std::move(inc));
  for (int i = 0; i < 2; ++i) {
    Process p;
    p.name = "P" + std::to_string(i);
    p.locals.emplace_back("BASE", Type::integer(32),
                          Value::integer(10 * (i + 1)));
    p.body = {call("INC", {lv("R" + std::to_string(i))})};
    system.add_process(std::move(p));
  }

  Kernel kernel;
  Interpreter interp(system, kernel, Engine::kVm);
  ASSERT_TRUE(interp.setup().is_ok());
  auto result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(interp.value_of("R0").get().to_int(), 11);
  EXPECT_EQ(interp.value_of("R1").get().to_int(), 21);
}

// ---- wait-until read sets --------------------------------------------------

/// A system with bus B {START: 1, ID: 2, DATA: 8}, global X, and one
/// process (locals J, ARR) whose body is one `wait until` per condition.
System condition_system(std::vector<ExprPtr> conds) {
  System system("t");
  Signal bus;
  bus.name = "B";
  bus.fields = {{"START", 1}, {"ID", 2}, {"DATA", 8}};
  system.add_signal(std::move(bus));
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.locals.emplace_back("J", Type::integer(32), Value::integer(1));
  p.locals.emplace_back("ARR", Type::array(Type::bits(8), 4));
  for (auto& c : conds) p.body.push_back(wait_until(std::move(c)));
  system.add_process(std::move(p));
  return system;
}

void declare_signals(const System& system, Kernel& kernel) {
  for (const auto& s : system.signals()) {
    for (const auto& f : s->fields) {
      kernel.add_signal_field(FieldKey{s->name, f.name}, BitVector(f.width));
    }
  }
}

/// The kLoadSignal ids of condition `cp`'s (unoptimized) body, in order.
std::vector<SignalId> signal_loads(const bytecode::ProcProgram& prog,
                                   const bytecode::CondProgram& cp) {
  std::vector<SignalId> ids;
  for (std::uint32_t pc = cp.start; pc < cp.start + cp.count; ++pc) {
    const bytecode::Instr& in = prog.cond_code[pc];
    if (in.op == bytecode::Op::kLoadSignal) {
      ids.push_back(static_cast<SignalId>(in.a));
    }
  }
  return ids;
}

std::vector<SignalId> read_set(const bytecode::ProcProgram& prog,
                               const bytecode::CondProgram& cp) {
  return {prog.cond_reads.begin() + cp.reads_start,
          prog.cond_reads.begin() + cp.reads_start + cp.reads_count};
}

TEST(BytecodeCompilerTest, ConditionReadSetIsItsSignalLoads) {
  std::vector<ExprPtr> conds;
  // The generated full-handshake receiver guard.
  conds.push_back(land(eq(sig("B", "START"), lit(1)), eq(sig("B", "ID"), lit(2))));
  // A field read twice is listed once; process locals do not count.
  conds.push_back(lor(eq(sig("B", "DATA"), var("J")),
                      eq(sig("B", "DATA"), lit(0))));
  // The strobe receiver's parity guard: modulo by a nonzero constant
  // cannot raise, so it stays sensitized.
  conds.push_back(eq(sig("B", "START"), mod(var("J"), lit(2))));
  // No signal at all: sensitized to nothing (its locals are frozen).
  conds.push_back(eq(var("J"), lit(5)));
  const System system = condition_system(std::move(conds));
  Kernel kernel;
  declare_signals(system, kernel);
  const SignalId start = kernel.signal_id(FieldKey{"B", "START"});
  const SignalId id = kernel.signal_id(FieldKey{"B", "ID"});
  const SignalId data = kernel.signal_id(FieldKey{"B", "DATA"});

  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  const bytecode::ProcProgram& prog = cs.processes[0];
  ASSERT_EQ(prog.conds.size(), 4u);
  for (const auto& cp : prog.conds) EXPECT_TRUE(cp.sensitized);
  EXPECT_EQ(read_set(prog, prog.conds[0]), (std::vector<SignalId>{start, id}));
  EXPECT_EQ(read_set(prog, prog.conds[1]), (std::vector<SignalId>{data}));
  EXPECT_EQ(read_set(prog, prog.conds[2]), (std::vector<SignalId>{start}));
  EXPECT_TRUE(read_set(prog, prog.conds[3]).empty());
  for (const auto& cp : prog.conds) {
    std::vector<SignalId> loads = signal_loads(prog, cp);
    std::sort(loads.begin(), loads.end());
    loads.erase(std::unique(loads.begin(), loads.end()), loads.end());
    std::vector<SignalId> reads = read_set(prog, cp);
    std::sort(reads.begin(), reads.end());
    EXPECT_EQ(reads, loads);
  }

  // The optimizer rewrites condition bodies but keeps the read sets.
  const bytecode::CompiledSystem opt =
      bytecode::compile(system, kernel, bytecode::OptLevel::kFull);
  EXPECT_EQ(opt.processes[0].cond_reads, prog.cond_reads);
  for (std::size_t i = 0; i < prog.conds.size(); ++i) {
    EXPECT_EQ(opt.processes[0].conds[i].sensitized, prog.conds[i].sensitized);
    EXPECT_EQ(opt.processes[0].conds[i].reads_start, prog.conds[i].reads_start);
    EXPECT_EQ(opt.processes[0].conds[i].reads_count, prog.conds[i].reads_count);
  }
}

TEST(BytecodeCompilerTest, GlobalReadingOrRaisingConditionsStayOnEveryCommit) {
  std::vector<ExprPtr> conds;
  conds.push_back(land(eq(sig("B", "START"), lit(1)), eq(var("X"), lit(0))));
  conds.push_back(eq(var("NOPE"), lit(1)));                          // kTrap
  conds.push_back(eq(aref("ARR", var("J")), sig("B", "DATA")));      // array
  conds.push_back(eq(spec::div(lit(8), sig("B", "DATA")), lit(1)));  // div
  conds.push_back(eq(mod(sig("B", "DATA"), var("J")), lit(0)));      // mod
  conds.push_back(eq(mod(sig("B", "DATA"), lit(0)), lit(0)));   // mod by 0
  conds.push_back(eq(slice(sig("B", "DATA"), 3, 0), lit(1)));   // slice
  const System system = condition_system(std::move(conds));
  Kernel kernel;
  declare_signals(system, kernel);
  const bytecode::CompiledSystem cs = bytecode::compile(system, kernel);
  const bytecode::ProcProgram& prog = cs.processes[0];
  ASSERT_EQ(prog.conds.size(), 7u);
  for (std::size_t i = 0; i < prog.conds.size(); ++i) {
    EXPECT_FALSE(prog.conds[i].sensitized) << "condition " << i;
    EXPECT_EQ(prog.conds[i].reads_count, 0u) << "condition " << i;
  }
  EXPECT_TRUE(prog.cond_reads.empty());
}

TEST(BytecodeVmTest, ParkedConditionRunsOnlyWhenAFieldItReadsChanges) {
  // `main` parks on a condition over B.START (plus, per case, a global,
  // an array element or a signal divisor); `stimulus` commits B.DATA twice,
  // then B.START. A sensitized condition is evaluated at park time and
  // at the B.START commit; an every-commit one after each B.DATA commit
  // too. Either way the run matches the AST engine's.
  struct Case {
    const char* name;
    ExprPtr extra;
    std::uint64_t evals;
  };
  Case cases[] = {
      {"signals only", lit(1), 2},
      {"global", eq(var("X"), lit(0)), 4},
      {"array load", eq(aref("ARR", lit(0)), lit(0)), 4},
      {"signal divisor",
       eq(spec::div(lit(8), add(sig("B", "DATA"), lit(1))), lit(2)), 4},
  };
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    System system = condition_system(
        {land(eq(sig("B", "START"), lit(1)), std::move(c.extra))});
    Process stimulus;
    stimulus.name = "stimulus";
    stimulus.body = {sig_assign("B", "DATA", lit(1)), wait_for(lit(1)),
                   sig_assign("B", "DATA", lit(2)), wait_for(lit(1)),
                   sig_assign("B", "START", lit(1))};
    system.add_process(std::move(stimulus));
    system.find_process("main")->body.push_back(assign("X", lit(7)));

    obs::MetricsRegistry metrics;
    const SimulationRun vm = simulate(system, 1'000'000, true,
                                      obs::ObsContext{&metrics, nullptr},
                                      Engine::kVm);
    const SimulationRun ast =
        simulate(system, 1'000'000, true, {}, Engine::kAst);
    ASSERT_TRUE(vm.result.status.is_ok()) << vm.result.status;
    ASSERT_TRUE(ast.result.status.is_ok()) << ast.result.status;
    const auto snap = metrics.snapshot();
    ASSERT_NE(snap.find("sim.vm.condition_evals"), nullptr);
    EXPECT_EQ(snap.find("sim.vm.condition_evals")->counter, c.evals);
    EXPECT_EQ(vm.interpreter->value_of("X").get().to_int(), 7);
    EXPECT_EQ(vm.result.end_time, ast.result.end_time);
    EXPECT_EQ(vm.result.kernel.delta_cycles, ast.result.kernel.delta_cycles);
    EXPECT_EQ(vm.result.kernel.wakeups_condition, 1u);
    EXPECT_EQ(vm.result.kernel.wakeups_condition,
              ast.result.kernel.wakeups_condition);
    EXPECT_EQ(vm.kernel->trace().size(), ast.kernel->trace().size());
  }
}

// ---- execution semantics on both engines -----------------------------------

class BothEngines : public ::testing::TestWithParam<Engine> {};
INSTANTIATE_TEST_SUITE_P(Engines, BothEngines,
                         ::testing::Values(Engine::kVm, Engine::kAst));

TEST_P(BothEngines, ForLoopShadowsAndRestoresLocal) {
  auto run = run_body(
      {Variable("OUT", Type::integer(32)),
       Variable("SUM", Type::integer(32))},
      {for_stmt("J", lit(1), lit(4),
                {assign("SUM", add(var("SUM"), var("J")))}),
       assign("OUT", var("J"))},
      {Variable("J", Type::integer(32), Value::integer(99))}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("SUM").get().to_int(), 10);
  EXPECT_EQ(run.interpreter->value_of("OUT").get().to_int(), 99);
}

TEST_P(BothEngines, NestedLoopsOverSameNameRestoreOuter) {
  auto run = run_body(
      {Variable("TRACE", Type::integer(32))},
      {for_stmt("I", lit(1), lit(2),
                {for_stmt("I", lit(10), lit(11), {}),
                 assign("TRACE",
                        add(mul(var("TRACE"), lit(10)), var("I")))})},
      {}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  // Each outer iteration sees its own I after the inner loop: 1 then 2.
  EXPECT_EQ(run.interpreter->value_of("TRACE").get().to_int(), 12);
}

TEST_P(BothEngines, ProcedureOutParamWritesArrayElement) {
  System system("t");
  system.add_variable(Variable("MEM", Type::array(Type::bits(16), 8)));
  Procedure mk;
  mk.name = "MK";
  mk.params = {{"IN_V", ParamDir::kIn, Type::bits(16)},
               {"OUT_V", ParamDir::kOut, Type::bits(16)}};
  mk.body = {assign("OUT_V", add(var("IN_V"), lit(5)))};
  system.add_procedure(std::move(mk));
  Process p;
  p.name = "main";
  p.body = {call("MK", {lit(100), lv_idx("MEM", lit(3))})};
  system.add_process(std::move(p));
  auto run = simulate(system, 1'000'000, false, {}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("MEM").at(3).to_uint(), 105u);
}

TEST_P(BothEngines, RecursiveProcedureRuns) {
  // FACT(n) via an explicit depth counter — exercises the VM's frame
  // stack (and the compiler's worklist handling of self-referencing
  // procedures).
  System system("t");
  system.add_variable(Variable("R", Type::integer(32)));
  Procedure fact;
  fact.name = "FACT";
  fact.params = {{"N", ParamDir::kIn, Type::integer(32)},
                 {"OUT_R", ParamDir::kOut, Type::integer(32)}};
  fact.locals.emplace_back("SUB", Type::integer(32));
  fact.body = {if_stmt(le(var("N"), lit(1)), {assign("OUT_R", lit(1))},
                       {call("FACT", {sub(var("N"), lit(1)), lv("SUB")}),
                        assign("OUT_R", mul(var("N"), var("SUB")))})};
  system.add_procedure(std::move(fact));
  Process p;
  p.name = "main";
  p.body = {call("FACT", {lit(5), lv("R")})};
  system.add_process(std::move(p));
  auto run = simulate(system, 1'000'000, false, {}, GetParam());
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("R").get().to_int(), 120);
}

TEST_P(BothEngines, SetValueInjectsStimuli) {
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  system.add_variable(Variable("Y", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {assign("Y", add(var("X"), lit(1)))};
  system.add_process(std::move(p));
  Kernel kernel;
  Interpreter interp(system, kernel, GetParam());
  ASSERT_TRUE(interp.setup().is_ok());
  interp.set_value("X", Value::integer(41));
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(interp.value_of("Y").get().to_int(), 42);
  EXPECT_THROW(interp.value_of("NOPE"), InternalError);
  EXPECT_THROW(interp.set_value("X", Value::integer(1, 16)), InternalError);
}

// ---- observability ---------------------------------------------------------

TEST(BytecodeVmTest, RecordsCompileAndExecutionMetrics) {
  System system("t");
  system.add_variable(Variable("S", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {for_stmt("I", lit(1), lit(100),
                     {assign("S", add(var("S"), var("I")))})};
  system.add_process(std::move(p));

  obs::MetricsRegistry metrics;
  auto run = simulate(system, 1'000'000, false,
                      obs::ObsContext{&metrics, nullptr}, Engine::kVm);
  ASSERT_TRUE(run.result.status.is_ok());
  const auto snap = metrics.snapshot();
  const auto* compiles = snap.find("sim.vm.compiles");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->counter, 1u);
  const auto* instrs = snap.find("sim.vm.compiled_instructions");
  ASSERT_NE(instrs, nullptr);
  EXPECT_GT(instrs->counter, 0u);
  const auto* ops = snap.find("sim.vm.executed_ops");
  ASSERT_NE(ops, nullptr);
  // 100 iterations x (compare + store + add + ...) — well above 500.
  EXPECT_GT(ops->counter, 500u);
  const auto* evals = snap.find("sim.vm.condition_evals");
  ASSERT_NE(evals, nullptr);
  EXPECT_EQ(evals->counter, 0u);  // no `wait until` in this body
  EXPECT_NE(snap.find("sim.vm.compile_us"), nullptr);
}

TEST(BytecodeVmTest, ExecutionCountersPublishWhenTheRunEnds) {
  // The VM counts in plain per-run integers: a snapshot taken while the
  // run is in progress (by a native process scheduled after `main`
  // suspends) sees nothing yet, the one after run() everything.
  System system("t");
  system.add_variable(Variable("S", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {for_stmt("I", lit(1), lit(10),
                     {assign("S", add(var("S"), var("I")))}),
            wait_for(5)};
  system.add_process(std::move(p));

  obs::MetricsRegistry metrics;
  Kernel kernel;
  kernel.set_obs(obs::ObsContext{&metrics, nullptr});
  Interpreter interp(system, kernel, Engine::kVm);
  ASSERT_TRUE(interp.setup().is_ok());
  std::uint64_t mid_run_ops = 99;
  kernel.add_process("probe", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    mid_run_ops = metrics.snapshot().find("sim.vm.executed_ops")->counter;
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(mid_run_ops, 0u);
  const std::uint64_t ops =
      metrics.snapshot().find("sim.vm.executed_ops")->counter;
  EXPECT_GT(ops, 10u);

  // A second run publishes its own counts on top, once.
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(metrics.snapshot().find("sim.vm.executed_ops")->counter, 2 * ops);
}

}  // namespace
}  // namespace ifsyn::sim
