// Randomized refinement fuzzing: generate random multi-process systems
// (random variable shapes, random access patterns, random loops and
// branches), refine them with a random protocol at a random buswidth, and
// require co-simulation equivalence. One seed = one reproducible system;
// any failure prints its seed.
//
// Construction invariants that keep the ORIGINAL deterministic (so
// equivalence is well-defined): each remote variable belongs to exactly
// one process (no cross-process data races); processes only read
// variables they wrote earlier in program order. The *bus* is still
// heavily contended -- all processes transfer concurrently through the
// arbiter -- which is exactly the part being fuzzed.
// Reproducing a failure: the assertion message names the seed; re-run the
// binary with IFSYN_FUZZ_SEED=<seed> to make iteration 0 regenerate that
// exact system. IFSYN_FUZZ_ITERS=<n> widens the sweep (default 40).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "check/checker.hpp"
#include "check/trace_miner.hpp"
#include "core/equivalence.hpp"
#include "partition/partitioner.hpp"
#include "protocol/protocol_generator.hpp"
#include "scoped_env.hpp"
#include "sim/interpreter.hpp"
#include "spec/system.hpp"

namespace ifsyn {
namespace {

using namespace spec;

/// Base seed: IFSYN_FUZZ_SEED when set, else 0. Iteration i fuzzes
/// base + i, so pointing the env var at a failing seed replays it first.
std::uint64_t fuzz_base_seed() {
  static const std::uint64_t base = [] {
    const char* env = std::getenv("IFSYN_FUZZ_SEED");
    return env ? std::strtoull(env, nullptr, 10) : 0ull;
  }();
  return base;
}

/// Iteration count: IFSYN_FUZZ_ITERS when set (min 1), else 40.
int fuzz_iterations() {
  static const int iters = [] {
    const char* env = std::getenv("IFSYN_FUZZ_ITERS");
    if (!env) return 40;
    const int parsed = std::atoi(env);
    return parsed > 0 ? parsed : 1;
  }();
  return iters;
}

/// Deterministic 64-bit PRNG (splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                     hi - lo + 1));
  }
  bool chance(int percent) { return range(1, 100) <= percent; }

 private:
  std::uint64_t state_;
};

struct OwnedVariable {
  std::string name;
  Type type = Type::bits(1);
  bool written = false;  // by its owner, earlier in program order
};

/// Append a random statement that keeps the invariants. Returns true if
/// it emitted anything.
void emit_random_statement(Rng& rng, Block& body,
                           std::vector<OwnedVariable>& vars,
                           int depth, int* loop_counter) {
  const int kind = rng.range(0, 5);
  switch (kind) {
    case 0: {  // local compute
      body.push_back(assign(
          "ACC", add(mul(var("ACC"), lit(rng.range(2, 5))),
                     lit(rng.range(1, 9)))));
      return;
    }
    case 1: {  // think time
      body.push_back(wait_for(rng.range(1, 4)));
      return;
    }
    case 2: {  // write one of my variables
      OwnedVariable& v = vars[static_cast<std::size_t>(
          rng.range(0, static_cast<int>(vars.size()) - 1))];
      if (v.type.is_array()) {
        const std::string loop_var = "i" + std::to_string((*loop_counter)++);
        const int upper = rng.range(1, v.type.array_size() - 1);
        body.push_back(for_stmt(
            loop_var, lit(0), lit(upper),
            {assign(lv_idx(v.name, var(loop_var)),
                    add(var(loop_var), lit(rng.range(0, 200))))}));
      } else {
        body.push_back(assign(v.name, add(var("ACC"), lit(rng.range(0, 99)))));
      }
      v.written = true;
      return;
    }
    case 3: {  // read back one of my written variables
      std::vector<OwnedVariable*> readable;
      for (auto& v : vars) {
        if (v.written) readable.push_back(&v);
      }
      if (readable.empty()) {
        body.push_back(assign("ACC", add(var("ACC"), lit(1))));
        return;
      }
      OwnedVariable& v = *readable[static_cast<std::size_t>(rng.range(
          0, static_cast<int>(readable.size()) - 1))];
      if (v.type.is_array()) {
        const std::string loop_var = "i" + std::to_string((*loop_counter)++);
        body.push_back(for_stmt(
            loop_var, lit(0), lit(rng.range(1, v.type.array_size() - 1)),
            {assign("TMP", aref(v.name, var(loop_var))),
             assign("ACC", add(var("ACC"), var("TMP")))}));
      } else {
        body.push_back(assign("TMP", var(v.name)));
        body.push_back(assign("ACC", add(var("ACC"), var("TMP"))));
      }
      return;
    }
    case 4: {  // branch on the accumulator
      if (depth >= 2) {
        body.push_back(assign("ACC", add(var("ACC"), lit(3))));
        return;
      }
      Block then_body, else_body;
      emit_random_statement(rng, then_body, vars, depth + 1, loop_counter);
      emit_random_statement(rng, else_body, vars, depth + 1, loop_counter);
      body.push_back(if_stmt(eq(mod(var("ACC"), lit(2)), lit(0)),
                             std::move(then_body), std::move(else_body)));
      return;
    }
    default: {  // compute loop with a nested access
      if (depth >= 2) {
        body.push_back(wait_for(1));
        return;
      }
      const std::string loop_var = "i" + std::to_string((*loop_counter)++);
      Block loop_body;
      emit_random_statement(rng, loop_body, vars, depth + 1, loop_counter);
      body.push_back(for_stmt(loop_var, lit(0), lit(rng.range(1, 3)),
                              std::move(loop_body)));
      return;
    }
  }
}

struct FuzzSystem {
  System system;
  int largest_message = 1;
};

FuzzSystem make_random_system(std::uint64_t seed) {
  Rng rng(seed);
  FuzzSystem out{System("fuzz_" + std::to_string(seed)), 1};
  System& s = out.system;

  const int process_count = rng.range(1, 3);
  std::vector<std::string> process_names;
  partition::ModuleAssignment m1{"M1", {}, {}};
  partition::ModuleAssignment m2{"M2", {}, {}};

  int loop_counter = 0;
  for (int p = 0; p < process_count; ++p) {
    // 1-2 remote variables owned by this process.
    std::vector<OwnedVariable> owned;
    const int var_count = rng.range(1, 2);
    for (int v = 0; v < var_count; ++v) {
      OwnedVariable ov;
      ov.name = "V" + std::to_string(p) + "_" + std::to_string(v);
      const int width = rng.range(4, 24);
      ov.type = rng.chance(50) ? Type::array(Type::bits(width),
                                             rng.range(4, 32))
                               : Type::bits(width);
      out.largest_message = std::max(
          out.largest_message,
          ov.type.scalar_width() + ov.type.address_bits());
      s.add_variable(Variable(ov.name, ov.type));
      m2.variables.push_back(ov.name);
      owned.push_back(std::move(ov));
    }

    Process proc;
    proc.name = "P" + std::to_string(p);
    proc.locals.emplace_back("ACC", Type::integer(32),
                             Value::integer(rng.range(0, 9)));
    proc.locals.emplace_back("TMP", Type::integer(32));
    const int stmt_count = rng.range(4, 10);
    for (int i = 0; i < stmt_count; ++i) {
      emit_random_statement(rng, proc.body, owned, 0, &loop_counter);
    }
    process_names.push_back(proc.name);
    m1.processes.push_back(proc.name);
    s.add_process(std::move(proc));
  }

  Status status = partition::apply_partition(s, {m1, m2});
  EXPECT_TRUE(status.is_ok()) << status;
  // A seed might generate a pure-compute system with no remote accesses;
  // the test skips those (no channels to group).
  if (!s.channels().empty()) {
    status = partition::group_all_channels(s, "FB");
    EXPECT_TRUE(status.is_ok()) << status;
  }
  return out;
}

class FuzzEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalence, RandomSystemSurvivesRefinement) {
  const std::uint64_t seed =
      fuzz_base_seed() + static_cast<std::uint64_t>(GetParam());
  FuzzSystem fuzz = make_random_system(seed);
  if (fuzz.system.channels().empty()) {
    GTEST_SKIP() << "seed " << seed << " generated no remote accesses";
  }

  Rng rng(seed * 7919 + 17);
  System refined = fuzz.system.clone("refined");
  refined.find_bus("FB")->width = rng.range(1, fuzz.largest_message);

  protocol::ProtocolGenOptions options;
  const int protocol_pick = rng.range(0, 2);
  options.protocol = protocol_pick == 0   ? ProtocolKind::kFullHandshake
                     : protocol_pick == 1 ? ProtocolKind::kHalfHandshake
                                          : ProtocolKind::kFixedDelay;
  options.fixed_delay_cycles = rng.range(2, 3);
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  Status status = generator.generate_all(refined);
  ASSERT_TRUE(status.is_ok()) << "seed " << seed << ": " << status;

  // The static checker must accept everything protocol generation emits.
  // Errors only: the fuzzed width is random, so an Eq. 1 rate warning is
  // a legitimate outcome, but a structural or FSM error never is.
  const check::CheckReport check_report = check::run_checks(refined);
  EXPECT_EQ(check_report.errors(), 0)
      << "seed " << seed << ":\n" << check_report.to_string();

  Result<core::EquivalenceReport> eq =
      core::check_equivalence(fuzz.system, refined, 10'000'000);
  ASSERT_TRUE(eq.is_ok()) << "seed " << seed << ": " << eq.status();
  EXPECT_TRUE(eq->equivalent)
      << "seed " << seed << " width " << refined.find_bus("FB")->width
      << " protocol " << protocol_kind_name(options.protocol) << ": "
      << (eq->mismatches.empty() ? "?" : eq->mismatches[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalence,
                         ::testing::Range(0, fuzz_iterations()));

// ---- engine differential testing ------------------------------------------
// Every fuzzed system (original and its refined form) runs three ways —
// the optimized bytecode VM (IFSYN_SIM_OPT=1), the unoptimized VM
// (IFSYN_SIM_OPT=0), and the AST reference interpreter — with tracing
// on, and all three runs must agree byte-for-byte: status, end time,
// every committed signal change, per-process statistics, and the final
// value of every system variable. This is the primary correctness
// harness for the VM's lowering pass and the superinstruction optimizer.

/// Run `system` on one engine with tracing enabled.
sim::SimulationRun run_engine(const System& system, sim::Engine engine) {
  return sim::simulate(system, 10'000'000, /*trace=*/true, /*obs=*/{},
                       engine);
}

void expect_two_runs_identical(const System& system,
                               const sim::SimulationRun& lhs,
                               const char* lhs_name,
                               const sim::SimulationRun& rhs,
                               const char* rhs_name) {
  SCOPED_TRACE(::testing::Message() << lhs_name << " vs " << rhs_name);
  ASSERT_EQ(lhs.result.status.is_ok(), rhs.result.status.is_ok())
      << lhs_name << ": " << lhs.result.status << " " << rhs_name << ": "
      << rhs.result.status;
  if (!lhs.result.status.is_ok()) return;  // both failed the same way
  EXPECT_EQ(lhs.result.end_time, rhs.result.end_time);

  // Scheduler counts. The VM parks read-set conditions on per-field lists
  // while the AST engine re-evaluates every condition after every commit,
  // so a lost or extra condition wake that leaves the waveform unchanged
  // still fails here.
  const sim::KernelStats& kl = lhs.result.kernel;
  const sim::KernelStats& kr = rhs.result.kernel;
  EXPECT_EQ(kl.instants, kr.instants);
  EXPECT_EQ(kl.delta_cycles, kr.delta_cycles);
  EXPECT_EQ(kl.max_deltas_in_instant, kr.max_deltas_in_instant);
  EXPECT_EQ(kl.signal_commits, kr.signal_commits);
  EXPECT_EQ(kl.wakeups_time, kr.wakeups_time);
  EXPECT_EQ(kl.wakeups_event, kr.wakeups_event);
  EXPECT_EQ(kl.wakeups_condition, kr.wakeups_condition);
  EXPECT_EQ(kl.wakeups_bus_grant, kr.wakeups_bus_grant);

  // Process results.
  ASSERT_EQ(lhs.result.processes.size(), rhs.result.processes.size());
  for (std::size_t i = 0; i < lhs.result.processes.size(); ++i) {
    const sim::ProcessStats& pv = lhs.result.processes[i];
    const sim::ProcessStats& pa = rhs.result.processes[i];
    EXPECT_EQ(pv.name, pa.name);
    EXPECT_EQ(pv.completed, pa.completed) << pv.name;
    EXPECT_EQ(pv.finish_time, pa.finish_time) << pv.name;
    EXPECT_EQ(pv.activations, pa.activations) << pv.name;
    EXPECT_EQ(pv.bus_wait_cycles, pa.bus_wait_cycles) << pv.name;
  }

  // Committed signal changes (waveform identity).
  const auto& tv = lhs.kernel->trace();
  const auto& ta = rhs.kernel->trace();
  ASSERT_EQ(tv.size(), ta.size());
  for (std::size_t i = 0; i < tv.size(); ++i) {
    EXPECT_TRUE(tv[i].time == ta[i].time && tv[i].delta == ta[i].delta &&
                tv[i].key == ta[i].key && tv[i].value == ta[i].value)
        << "trace entry " << i << ": " << lhs_name << " "
        << tv[i].key.to_string() << "@" << tv[i].time << "." << tv[i].delta
        << " " << rhs_name << " " << ta[i].key.to_string() << "@"
        << ta[i].time << "." << ta[i].delta;
  }

  // Final variable state.
  for (const auto& v : system.variables()) {
    EXPECT_EQ(lhs.interpreter->value_of(v->name),
              rhs.interpreter->value_of(v->name))
        << "variable " << v->name;
  }
}

void expect_runs_identical(const System& system, std::uint64_t seed,
                           const char* label,
                           bool mine_conformance = false) {
  sim::SimulationRun vm_opt = [&] {
    ScopedEnv opt("IFSYN_SIM_OPT", "1");
    return run_engine(system, sim::Engine::kVm);
  }();
  sim::SimulationRun vm_ref = [&] {
    ScopedEnv opt("IFSYN_SIM_OPT", "0");
    return run_engine(system, sim::Engine::kVm);
  }();
  const sim::SimulationRun ast = run_engine(system, sim::Engine::kAst);
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " (" << label << ")");
  expect_two_runs_identical(system, vm_opt, "vm+opt", ast, "ast");
  expect_two_runs_identical(system, vm_opt, "vm+opt", vm_ref, "vm");

  // For refined systems, close the second loop: the trace each engine
  // committed must conform to the statically extracted protocol
  // automata. An engine bug that merely *skews* the waveform the same
  // way on every engine slips past the byte-for-byte oracle above but
  // not past the mined-vs-static diff.
  if (!mine_conformance) return;
  const struct {
    const sim::SimulationRun* run;
    const char* name;
  } legs[] = {{&vm_opt, "vm+opt"}, {&vm_ref, "vm"}, {&ast, "ast"}};
  for (const auto& leg : legs) {
    if (!leg.run->result.status.is_ok()) continue;
    const check::ConformanceReport mined =
        check::mine_and_diff(system, leg.run->kernel->trace());
    EXPECT_TRUE(mined.clean())
        << leg.name << " trace fails conformance:\n" << mined.to_string();
  }
}

class FuzzEngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEngineDifferential, EnginesAgreeByteForByte) {
  const std::uint64_t seed =
      fuzz_base_seed() + static_cast<std::uint64_t>(GetParam());
  FuzzSystem fuzz = make_random_system(seed);
  expect_runs_identical(fuzz.system, seed, "original");

  if (fuzz.system.channels().empty()) return;  // nothing to refine

  Rng rng(seed * 7919 + 17);
  System refined = fuzz.system.clone("refined");
  refined.find_bus("FB")->width = rng.range(1, fuzz.largest_message);

  protocol::ProtocolGenOptions options;
  const int protocol_pick = rng.range(0, 2);
  options.protocol = protocol_pick == 0   ? ProtocolKind::kFullHandshake
                     : protocol_pick == 1 ? ProtocolKind::kHalfHandshake
                                          : ProtocolKind::kFixedDelay;
  options.fixed_delay_cycles = rng.range(2, 3);
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  Status status = generator.generate_all(refined);
  ASSERT_TRUE(status.is_ok()) << "seed " << seed << ": " << status;
  expect_runs_identical(refined, seed, "refined", /*mine_conformance=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEngineDifferential,
                         ::testing::Range(0, fuzz_iterations()));

}  // namespace
}  // namespace ifsyn
