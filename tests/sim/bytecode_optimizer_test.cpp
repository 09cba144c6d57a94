// Optimizer tests: the declarative instruction-pattern matcher
// (matchers.hpp) and the post-compile rewrite pass (optimizer.hpp) —
// pattern capture/unification semantics, peephole fusions, bulk-transfer
// recognition on protocol-refined systems, the interior-jump-target
// safety rule, and the byte-identity contract: deterministic simulation
// results and sim.vm.executed_ops must not depend on IFSYN_SIM_OPT.
#include "sim/bytecode/optimizer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "protocol/protocol_generator.hpp"
#include "scoped_env.hpp"
#include "sim/bytecode/compiler.hpp"
#include "sim/bytecode/matchers.hpp"
#include "sim/bytecode/vm.hpp"
#include "sim/interpreter.hpp"
#include "spec/system.hpp"

namespace ifsyn::sim::bytecode {
namespace {

using namespace spec;

int count_op(const ProcProgram& prog, Op op) {
  int n = 0;
  for (const Instr& in : prog.code) n += in.op == op ? 1 : 0;
  for (const Instr& in : prog.cond_code) n += in.op == op ? 1 : 0;
  return n;
}

int count_op(const CompiledSystem& cs, Op op) {
  int n = 0;
  for (const ProcProgram& p : cs.processes) n += count_op(p, op);
  return n;
}

// ---- matcher --------------------------------------------------------------

TEST(MatchContextTest, BindsOnFirstUseUnifiesOnLater) {
  MatchContext ctx;
  EXPECT_FALSE(ctx.is_bound(0));
  EXPECT_TRUE(ctx.bind(0, 7));   // first use binds
  EXPECT_TRUE(ctx.is_bound(0));
  EXPECT_EQ(ctx[0], 7);
  EXPECT_TRUE(ctx.bind(0, 7));   // same value unifies
  EXPECT_FALSE(ctx.bind(0, 8));  // different value does not
  EXPECT_TRUE(ctx.bind(1, 8));   // other slots are independent
  ctx.clear();
  EXPECT_FALSE(ctx.is_bound(0));
  EXPECT_TRUE(ctx.bind(0, 9));
  EXPECT_EQ(ctx[0], 9);
}

TEST(PatternTest, MatchesAnchoredSequencesWithCaptures) {
  // The wait-for-imm shape: the same register capture threads the
  // producer->consumer chain kConst -> kToInt -> kWaitFor.
  const Pattern p{{
      ip(Op::kConst, any_(), cap_(0), cap_(1)),
      ip(Op::kToInt, any_(), cap_(0), cap_(0)),
      ip(Op::kWaitFor, any_(), any_(), cap_(0)),
  }};
  const std::vector<Instr> code = {
      Instr{.op = Op::kHalt},
      Instr{.op = Op::kConst, .dst = 3, .a = 5},
      Instr{.op = Op::kToInt, .dst = 3, .a = 3},
      Instr{.op = Op::kWaitFor, .a = 3},
  };
  MatchContext ctx;
  EXPECT_FALSE(p.match(code, 0, ctx)) << "anchored: kHalt is not kConst";
  ASSERT_TRUE(p.match(code, 1, ctx));
  EXPECT_EQ(ctx[0], 3) << "register capture";
  EXPECT_EQ(ctx[1], 5) << "const pool capture";
  EXPECT_FALSE(p.match(code, 2, ctx)) << "window too short";

  // A broken def-use chain (kWaitFor reads a different register) fails
  // unification even though every opcode lines up.
  std::vector<Instr> broken = code;
  broken[3].a = 2;
  EXPECT_FALSE(p.match(broken, 1, ctx));
}

TEST(PatternTest, LiteralCellsAndOpcodeAlternatives) {
  const Pattern p{{
      ip_any({Op::kLoadVar, Op::kConst}, any_(), lit_(0)),
      ip(Op::kBinary, lit_(static_cast<std::int64_t>(BinaryOp::kAdd)),
         lit_(0), lit_(0), cap_(0)),
  }};
  MatchContext ctx;
  const std::vector<Instr> add = {
      Instr{.op = Op::kConst, .dst = 0, .a = 2},
      Instr{.op = Op::kBinary,
            .aux = static_cast<std::uint8_t>(BinaryOp::kAdd),
            .dst = 0, .a = 0, .b = 1},
  };
  ASSERT_TRUE(p.match(add, 0, ctx));
  EXPECT_EQ(ctx[0], 1);

  std::vector<Instr> sub = add;
  sub[1].aux = static_cast<std::uint8_t>(BinaryOp::kSub);
  EXPECT_FALSE(p.match(sub, 0, ctx)) << "aux literal must reject kSub";

  std::vector<Instr> wrong_dst = add;
  wrong_dst[0].dst = 1;
  EXPECT_FALSE(p.match(wrong_dst, 0, ctx)) << "dst literal must reject r1";

  std::vector<Instr> signal_load = add;
  signal_load[0].op = Op::kLoadSignal;
  EXPECT_FALSE(p.match(signal_load, 0, ctx))
      << "opcode alternatives are a closed set";
}

// ---- env selection --------------------------------------------------------

TEST(OptimizerEnvTest, EnvVariablePicksLevel) {
  ScopedEnv opt("IFSYN_SIM_OPT", nullptr);
  EXPECT_EQ(opt_level_from_env(), OptLevel::kFull) << "default is optimized";
  opt.set("0");
  EXPECT_EQ(opt_level_from_env(), OptLevel::kNone);
  opt.set("1");
  EXPECT_EQ(opt_level_from_env(), OptLevel::kFull);
}

// ---- peephole rewrites ----------------------------------------------------

TEST(OptimizerTest, FoldsWaitForIntoImmediate) {
  System system("t");
  Process p;
  p.name = "main";
  p.body = {wait_for(3)};
  system.add_process(std::move(p));

  Kernel k1;
  const CompiledSystem ref = compile(system, k1);
  EXPECT_EQ(ref.opt_level, OptLevel::kNone);
  EXPECT_EQ(count_op(ref, Op::kWaitFor), 1);
  EXPECT_EQ(count_op(ref, Op::kWaitForImm), 0);
  EXPECT_EQ(ref.optimized_instructions, ref.total_instructions);

  Kernel k2;
  const CompiledSystem opt = compile(system, k2, OptLevel::kFull);
  EXPECT_EQ(opt.opt_level, OptLevel::kFull);
  EXPECT_EQ(count_op(opt, Op::kWaitForImm), 1);
  EXPECT_EQ(count_op(opt, Op::kWaitFor), 0);
  EXPECT_EQ(count_op(opt, Op::kToInt), 0);
  EXPECT_GE(opt.opt.patterns_matched, 1u);
  EXPECT_LT(opt.optimized_instructions, opt.total_instructions);
  EXPECT_EQ(opt.total_instructions - opt.optimized_instructions,
            opt.opt.instructions_eliminated);
  EXPECT_EQ(opt.total_instructions, ref.total_instructions)
      << "reported compile size must not depend on the opt level";
}

TEST(OptimizerTest, FusesLoadBinaryStoreChains) {
  // X := X + 1 lowers to kLoadVar/kConst/kBinary/kStoreVar; the optimizer
  // collapses the whole statement into one three-address kBinaryFused.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {assign("X", add(var("X"), lit(1)))};
  system.add_process(std::move(p));

  Kernel k1;
  const CompiledSystem ref = compile(system, k1);
  EXPECT_EQ(count_op(ref, Op::kBinary), 1);
  EXPECT_EQ(count_op(ref, Op::kBinaryFused), 0);

  Kernel k2;
  const CompiledSystem opt = compile(system, k2, OptLevel::kFull);
  EXPECT_EQ(count_op(opt, Op::kBinaryFused), 1);
  EXPECT_EQ(count_op(opt, Op::kBinary), 0);
  EXPECT_EQ(count_op(opt, Op::kStoreVar), 0);
  ASSERT_EQ(opt.processes[0].fusions.size(), 1u);
  const FusedBinary& f = opt.processes[0].fusions[0];
  EXPECT_TRUE(f.has_store);
  EXPECT_EQ(f.op, BinaryOp::kAdd);
  EXPECT_EQ(f.weight, 4u) << "weight = dispatch count of the fused sequence";
}

TEST(OptimizerTest, NeverFusesConstConstBinary) {
  // The compiler keeps 1/0 as runtime code (lazy error); the optimizer
  // must leave it on the generic path too, so the per-execution error
  // timing is unchanged.
  System system("t");
  system.add_variable(Variable("X", Type::integer(32)));
  Process p;
  p.name = "main";
  p.body = {if_stmt(eq(lit(1), lit(2)),
                    {assign("X", spec::div(lit(1), lit(0)))})};
  system.add_process(std::move(p));

  Kernel kernel;
  const CompiledSystem opt = compile(system, kernel, OptLevel::kFull);
  EXPECT_EQ(count_op(opt, Op::kBinary), 1)
      << "div-by-zero must remain as runtime code even at kFull";
}

// ---- safety: control flow never lands mid-superinstruction ----------------

TEST(OptimizerTest, InteriorJumpTargetBlocksRewrite) {
  // Hand-built program: a wait-for-imm candidate whose kWaitFor row is
  // also a jump target. Rewriting would swallow the landing pc into the
  // superinstruction interior, so the match must be rejected.
  const std::vector<Instr> seq = {
      Instr{.op = Op::kConst, .dst = 0, .a = 0},
      Instr{.op = Op::kToInt, .dst = 0, .a = 0},
      Instr{.op = Op::kWaitFor, .a = 0},
      Instr{.op = Op::kHalt},
  };

  CompiledSystem blocked;
  {
    ProcProgram prog;
    prog.process_name = "p";
    prog.consts.push_back(make_int(3));
    prog.code.push_back(Instr{.op = Op::kJump, .a = 3});  // lands on kWaitFor
    prog.code.insert(prog.code.end(), seq.begin(), seq.end());
    prog.entry = 0;
    prog.num_regs = 1;
    blocked.processes.push_back(std::move(prog));
    blocked.total_instructions = blocked.processes[0].code.size();
  }
  optimize(blocked, OptLevel::kFull);
  EXPECT_EQ(blocked.processes[0].code.size(), 5u) << "rewrite must be blocked";
  EXPECT_EQ(blocked.opt.patterns_matched, 0u);
  EXPECT_EQ(blocked.opt.instructions_eliminated, 0u);
  EXPECT_EQ(blocked.processes[0].code[0].a, 3) << "target untouched";

  // Control case: the identical sequence without the incoming jump is
  // rewritten, and the entry pc survives the remap.
  CompiledSystem open;
  {
    ProcProgram prog;
    prog.process_name = "p";
    prog.consts.push_back(make_int(3));
    prog.code = seq;
    prog.entry = 0;
    prog.num_regs = 1;
    open.processes.push_back(std::move(prog));
    open.total_instructions = open.processes[0].code.size();
  }
  optimize(open, OptLevel::kFull);
  ASSERT_EQ(open.processes[0].code.size(), 2u);
  EXPECT_EQ(open.processes[0].code[0].op, Op::kWaitForImm);
  EXPECT_EQ(open.processes[0].code[1].op, Op::kHalt);
  EXPECT_EQ(open.processes[0].entry, 0u);
  EXPECT_EQ(open.opt.instructions_eliminated, 2u);
}

// ---- bulk transfers on protocol-refined systems ---------------------------

/// A system whose single process writes and reads back a remote array —
/// after partitioning + protocol generation every access streams through
/// the narrow bus "FB" word by word, which is the shape the bulk rules
/// recognize.
System make_partitioned_transfer_system() {
  System s("xfer");
  s.add_variable(Variable("V", Type::array(Type::bits(16), 8)));
  Process p;
  p.name = "P0";
  p.locals.emplace_back("ACC", Type::integer(32), Value::integer(1));
  p.locals.emplace_back("TMP", Type::integer(32));
  p.body = {
      for_stmt("i0", lit(0), lit(7),
               {assign(lv_idx("V", var("i0")), add(var("i0"), lit(3)))}),
      for_stmt("i1", lit(0), lit(7),
               {assign("TMP", aref("V", var("i1"))),
                assign("ACC", add(var("ACC"), var("TMP")))}),
  };
  s.add_process(std::move(p));

  partition::ModuleAssignment m1;
  m1.module = "M1";
  m1.processes.push_back("P0");
  partition::ModuleAssignment m2;
  m2.module = "M2";
  m2.variables.push_back("V");
  Status status = partition::apply_partition(s, {m1, m2});
  EXPECT_TRUE(status.is_ok()) << status;
  status = partition::group_all_channels(s, "FB");
  EXPECT_TRUE(status.is_ok()) << status;
  return s;
}

System refine(const System& s, ProtocolKind kind, int bus_width) {
  System refined = s.clone("refined");
  refined.find_bus("FB")->width = bus_width;
  protocol::ProtocolGenOptions options;
  options.protocol = kind;
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  const Status status = generator.generate_all(refined);
  EXPECT_TRUE(status.is_ok()) << status;
  return refined;
}

/// Compile `system` the way a real run does — through Interpreter::setup,
/// which declares the signals and bus locks on the kernel before the
/// bytecode compiler interns them (a bare compile() would lower every
/// signal reference to a lazy kTrap instead). Returns a copy of the
/// artifact compiled at the given IFSYN_SIM_OPT setting.
CompiledSystem compile_via_setup(const System& system, const char* opt) {
  ScopedEnv scoped("IFSYN_SIM_OPT", opt);
  Kernel kernel;
  Interpreter interp(system, kernel, Engine::kVm);
  const Status status = interp.setup();
  EXPECT_TRUE(status.is_ok()) << status;
  return interp.vm()->compiled();
}

TEST(OptimizerTest, RecognizesBulkTransferLoops) {
  const System base = make_partitioned_transfer_system();
  for (const ProtocolKind kind :
       {ProtocolKind::kFullHandshake, ProtocolKind::kHalfHandshake}) {
    const System refined = refine(base, kind, 5);

    const CompiledSystem ref = compile_via_setup(refined, "0");
    EXPECT_EQ(count_op(ref, Op::kBulkSend), 0);
    EXPECT_EQ(count_op(ref, Op::kBulkRecv), 0);

    const CompiledSystem opt = compile_via_setup(refined, "1");
    EXPECT_GE(count_op(opt, Op::kBulkSend), 1)
        << protocol_kind_name(kind)
        << ": generated Send word loops should collapse to kBulkSend";
    EXPECT_GE(count_op(opt, Op::kBulkRecv), 1)
        << protocol_kind_name(kind)
        << ": generated Receive word loops should collapse to kBulkRecv";
    EXPECT_GT(opt.opt.patterns_matched, 0u);
    EXPECT_LT(opt.optimized_instructions, opt.total_instructions);
  }
}

// ---- byte-identity across opt levels --------------------------------------

TEST(OptimizerTest, ExecutedOpsAndResultsIdenticalAcrossLevels) {
  const System base = make_partitioned_transfer_system();
  const System refined = refine(base, ProtocolKind::kHalfHandshake, 5);

  obs::MetricsRegistry ref_metrics;
  SimulationRun ref = [&] {
    ScopedEnv off("IFSYN_SIM_OPT", "0");
    return simulate(refined, 10'000'000, false,
                    obs::ObsContext{&ref_metrics, nullptr}, Engine::kVm);
  }();
  obs::MetricsRegistry opt_metrics;
  SimulationRun opt = [&] {
    ScopedEnv on("IFSYN_SIM_OPT", "1");
    return simulate(refined, 10'000'000, false,
                    obs::ObsContext{&opt_metrics, nullptr}, Engine::kVm);
  }();

  ASSERT_TRUE(ref.result.status.is_ok()) << ref.result.status;
  ASSERT_TRUE(opt.result.status.is_ok()) << opt.result.status;
  EXPECT_EQ(ref.result.end_time, opt.result.end_time);
  for (const auto& v : refined.variables()) {
    EXPECT_EQ(ref.interpreter->value_of(v->name),
              opt.interpreter->value_of(v->name))
        << "variable " << v->name;
  }

  const auto ref_snap = ref_metrics.snapshot();
  const auto opt_snap = opt_metrics.snapshot();
  const auto* ref_ops = ref_snap.find("sim.vm.executed_ops");
  const auto* opt_ops = opt_snap.find("sim.vm.executed_ops");
  ASSERT_NE(ref_ops, nullptr);
  ASSERT_NE(opt_ops, nullptr);
  EXPECT_GT(ref_ops->counter, 0u);
  EXPECT_EQ(ref_ops->counter, opt_ops->counter)
      << "superinstruction weights must keep executed_ops byte-identical";
  const auto* ref_size = ref_snap.find("sim.vm.compiled_instructions");
  const auto* opt_size = opt_snap.find("sim.vm.compiled_instructions");
  ASSERT_NE(ref_size, nullptr);
  ASSERT_NE(opt_size, nullptr);
  EXPECT_EQ(ref_size->counter, opt_size->counter)
      << "deterministic compile-size metric must not depend on opt level";

  ASSERT_NE(ref_snap.find("sim.vm.opt.level"), nullptr);
  EXPECT_EQ(ref_snap.find("sim.vm.opt.level")->gauge, 0);
  ASSERT_NE(opt_snap.find("sim.vm.opt.level"), nullptr);
  EXPECT_EQ(opt_snap.find("sim.vm.opt.level")->gauge, 1);
  ASSERT_NE(opt_snap.find("sim.vm.opt.patterns_matched"), nullptr);
  EXPECT_GT(opt_snap.find("sim.vm.opt.patterns_matched")->counter, 0u);
  EXPECT_EQ(ref_snap.find("sim.vm.opt.patterns_matched")->counter, 0u);
  ASSERT_NE(opt_snap.find("sim.vm.opt.bulk_ops"), nullptr);
  EXPECT_GT(opt_snap.find("sim.vm.opt.bulk_ops")->counter, 0u)
      << "the transfer workload must actually execute bulk dispatches";

  // The counters are scrapeable through the generic prometheus
  // renderer, level gauge included.
  const std::string prom = opt_snap.to_prometheus_text();
  EXPECT_NE(prom.find("ifsyn_sim_vm_opt_level 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ifsyn_sim_vm_opt_bulk_ops_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ifsyn_sim_vm_opt_patterns_matched_total"),
            std::string::npos);
}

}  // namespace
}  // namespace ifsyn::sim::bytecode
