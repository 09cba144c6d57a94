// The process-wide bytecode artifact store (sim/bytecode/program_cache):
// keying, compile-once sharing across Vms, LRU eviction, and the
// differential guarantee that a cached program simulates identically to
// a fresh compile.
#include "sim/bytecode/program_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/interpreter.hpp"
#include "suite/fig3_example.hpp"

namespace ifsyn::sim::bytecode {
namespace {

/// RAII guard: tests must never leak an installed cache into other tests.
struct ScopedProcessCache {
  explicit ScopedProcessCache(ProgramCache* cache) {
    install_process_cache(cache);
  }
  ~ScopedProcessCache() { install_process_cache(nullptr); }
};

TEST(SystemCacheKeyTest, StableForEqualContentSensitiveToChanges) {
  const spec::System a = suite::make_fig3_system();
  const spec::System b = suite::make_fig3_system();
  EXPECT_EQ(system_cache_key(a), system_cache_key(b));
  // A clone under another name prints differently -> different key.
  const spec::System renamed = a.clone("other_name");
  EXPECT_NE(system_cache_key(a), system_cache_key(renamed));
}

TEST(SystemCacheKeyTest, OptimizationLevelKeysSeparateArtifacts) {
  // A process serving mixed IFSYN_SIM_OPT requests must never hand an
  // optimized artifact to a reference run (or vice versa), so the level
  // is part of the key.
  const spec::System a = suite::make_fig3_system();
  EXPECT_NE(system_cache_key(a, OptLevel::kNone),
            system_cache_key(a, OptLevel::kFull));
  EXPECT_EQ(system_cache_key(a), system_cache_key(a, OptLevel::kNone))
      << "the default level is kNone";
  EXPECT_EQ(system_cache_key(a, OptLevel::kFull),
            system_cache_key(a, OptLevel::kFull));
}

TEST(ProgramCacheTest, CompilesOncePerKey) {
  ProgramCache cache;
  int compiles = 0;
  auto compile = [&] {
    ++compiles;
    return std::make_shared<const CompiledSystem>();
  };
  auto first = cache.get_or_compute("k", compile);
  bool was_hit = false;
  auto second = cache.get_or_compute("k", compile, &was_hit);
  EXPECT_EQ(compiles, 1);
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(first.get(), second.get());  // shared artifact
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ProgramCacheTest, CapacityOneEvictsTheColderKey) {
  ProgramCache cache(/*capacity=*/1);
  int compiles = 0;
  auto compile = [&] {
    ++compiles;
    return std::make_shared<const CompiledSystem>();
  };
  cache.get_or_compute("a", compile);
  cache.get_or_compute("b", compile);  // evicts a
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.get_or_compute("a", compile);  // recompiles
  EXPECT_EQ(compiles, 3);
}

TEST(ProgramCacheTest, CachedProgramSimulatesIdentically) {
  const spec::System system = suite::make_fig3_system();

  // Fresh compile, no cache installed (the one-shot CLI path).
  const SimulationRun baseline = simulate(system, 1'000'000);
  ASSERT_TRUE(baseline.result.status.is_ok());

  ProgramCache cache;
  ScopedProcessCache installed(&cache);
  const SimulationRun cold = simulate(system, 1'000'000);
  const SimulationRun warm = simulate(system, 1'000'000);
  ASSERT_TRUE(cold.result.status.is_ok());
  ASSERT_TRUE(warm.result.status.is_ok());
  if (engine_from_env() == Engine::kVm) {
    // The AST reference engine never touches the program cache, so the
    // counter assertions only hold on the VM leg; the differential
    // check below is engine-independent.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_GE(cache.hits(), 1u);
  }

  // Same end time and per-process completion whether the program came
  // from a fresh compile, a cold cache, or a warm hit.
  for (const SimulationRun* run : {&cold, &warm}) {
    EXPECT_EQ(run->result.end_time, baseline.result.end_time);
    ASSERT_EQ(run->result.processes.size(),
              baseline.result.processes.size());
    for (std::size_t i = 0; i < baseline.result.processes.size(); ++i) {
      EXPECT_EQ(run->result.processes[i].completed,
                baseline.result.processes[i].completed);
      EXPECT_EQ(run->result.processes[i].finish_time,
                baseline.result.processes[i].finish_time);
    }
  }
  // Final variable state matches too.
  for (const auto& variable : system.variables()) {
    const spec::Value& expect =
        baseline.interpreter->value_of(variable->name);
    const spec::Value& cold_value =
        cold.interpreter->value_of(variable->name);
    for (int i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect.at(i), cold_value.at(i)) << variable->name;
    }
  }
}

}  // namespace
}  // namespace ifsyn::sim::bytecode
