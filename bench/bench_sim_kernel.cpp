// Microbenchmark for the discrete-event simulation kernel hot paths:
// timed-waiter scheduling (advance_time), event-sensitivity wakeups
// (commit_deltas), wildcard record sensitivity, condition waiters, and
// the FLC example end-to-end through the interpreter.
//
// Each workload is synthetic but shaped like the traffic the explorer's
// validation phase generates: many processes, many signals, and wakeup
// patterns that used to cost O(processes) or
// O(waiters x sensitivity x changed) per scheduler step.
//
// Writes BENCH_sim_kernel.json. IFSYN_BENCH_SMOKE=1 shrinks the workloads
// for CI smoke runs; numbers from smoke mode are not comparable.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "partition/partitioner.hpp"
#include "protocol/protocol_generator.hpp"
#include "sim/interpreter.hpp"
#include "spec/system.hpp"
#include "sim/kernel.hpp"
#include "sim/task.hpp"
#include "suite/flc.hpp"
#include "util/bit_vector.hpp"

using namespace ifsyn;
using namespace ifsyn::sim;
using Clock = std::chrono::steady_clock;

namespace {

struct WorkloadResult {
  double best_ms = 1e300;
  SimResult sim;
};

/// Runs `build` + Kernel::run `repeats` times, keeping the best wall time.
template <typename BuildFn>
WorkloadResult run_workload(const char* name, int repeats, BuildFn build,
                            std::uint64_t max_time = 50'000'000) {
  WorkloadResult out;
  for (int rep = 0; rep < repeats; ++rep) {
    Kernel kernel;
    build(kernel);
    const auto start = Clock::now();
    SimResult result = kernel.run(max_time);
    const auto stop = Clock::now();
    if (!result.status.is_ok()) {
      std::printf("workload %s failed: %s\n", name,
                  result.status.to_string().c_str());
      std::exit(1);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < out.best_ms) {
      out.best_ms = ms;
      out.sim = std::move(result);
    }
  }
  return out;
}

FieldKey key(std::string sig, std::string field = "") {
  return FieldKey{std::move(sig), std::move(field)};
}

}  // namespace

int main() {
  const bool smoke = ifsyn::bench::smoke_mode();
  const int repeats = smoke ? 1 : 3;
  std::printf("=== Simulation kernel microbenchmarks%s ===\n",
              smoke ? " (smoke mode)" : "");

  ifsyn::bench::BenchJson json("sim_kernel");
  json.set("smoke", smoke ? 1 : 0);

  // ---- 1. timed wheel: many processes sleeping on staggered periods ----
  // Stresses advance_time (pop next instant) and ready dispatch; the old
  // kernel rescanned every process twice per instant.
  {
    const int procs = smoke ? 64 : 512;
    const int sleeps = smoke ? 64 : 512;
    auto result = run_workload("timed_wheel", repeats, [&](Kernel& kernel) {
      for (int p = 0; p < procs; ++p) {
        kernel.add_process(
            "t" + std::to_string(p), [&kernel, p, sleeps]() -> SimTask {
              const std::uint64_t period = 1 + (p % 13);
              for (int i = 0; i < sleeps; ++i) {
                auto aw = kernel.wait_for(period);
                co_await aw;
              }
            });
      }
    });
    std::printf("timed_wheel      %4d procs x %4d sleeps: %9.2f ms "
                "(%llu instants)\n",
                procs, sleeps, result.best_ms,
                static_cast<unsigned long long>(result.sim.kernel.instants));
    json.set("timed_wheel_ms", result.best_ms);
    json.set("timed_wheel_instants",
             static_cast<double>(result.sim.kernel.instants));
  }

  // ---- 2. event wakeups: one waiter per signal, round-robin driver ----
  // Each commit used to scan every waiting process and string-compare its
  // whole sensitivity list; the sensitivity index touches only the one
  // process parked on the changed signal.
  {
    const int signals = smoke ? 64 : 384;
    const int rounds = smoke ? 32 : 256;
    auto result = run_workload("event_wakeup", repeats, [&](Kernel& kernel) {
      for (int s = 0; s < signals; ++s) {
        kernel.add_signal_field(key("S" + std::to_string(s)), BitVector(1));
      }
      for (int s = 0; s < signals; ++s) {
        kernel.add_process(
            "w" + std::to_string(s), [&kernel, s, rounds]() -> SimTask {
              const FieldKey k{"S" + std::to_string(s), ""};
              for (int r = 0; r < rounds; ++r) {
                std::vector<FieldKey> sens{k};
                auto aw = kernel.wait_on(std::move(sens));
                co_await aw;
              }
            });
      }
      kernel.add_process("driver", [&kernel, rounds, signals]() -> SimTask {
        for (int r = 0; r < rounds; ++r) {
          for (int s = 0; s < signals; ++s) {
            const FieldKey k{"S" + std::to_string(s), ""};
            kernel.schedule_signal(
                k, BitVector::from_uint(1, r % 2 == 0 ? 1 : 0));
            auto aw = kernel.wait_for(1);
            co_await aw;
          }
        }
      });
    });
    std::printf("event_wakeup     %4d signals x %4d rounds: %8.2f ms "
                "(%llu event wakeups)\n",
                signals, rounds, result.best_ms,
                static_cast<unsigned long long>(
                    result.sim.kernel.wakeups_event));
    json.set("event_wakeup_ms", result.best_ms);
    json.set("event_wakeup_wakeups",
             static_cast<double>(result.sim.kernel.wakeups_event));
  }

  // ---- 3. wildcard record sensitivity: FieldKey{sig, ""} fan-out ----
  // Waiters subscribe to a whole record; the driver commits one field at a
  // time. Exercises wildcard expansion in the sensitivity index.
  {
    const int fields = 16;
    const int waiters = smoke ? 16 : 96;
    const int rounds = smoke ? 64 : 512;
    auto result = run_workload("wildcard", repeats, [&](Kernel& kernel) {
      for (int f = 0; f < fields; ++f) {
        kernel.add_signal_field(key("REC", "F" + std::to_string(f)),
                                BitVector(8));
      }
      for (int w = 0; w < waiters; ++w) {
        kernel.add_process(
            "w" + std::to_string(w), [&kernel, rounds]() -> SimTask {
              for (int r = 0; r < rounds; ++r) {
                std::vector<FieldKey> sens{FieldKey{"REC", ""}};
                auto aw = kernel.wait_on(std::move(sens));
                co_await aw;
              }
            });
      }
      kernel.add_process("driver", [&kernel, rounds, fields]() -> SimTask {
        for (int r = 0; r < rounds; ++r) {
          const FieldKey k{"REC", "F" + std::to_string(r % fields)};
          kernel.schedule_signal(k, BitVector::from_uint(8, 1 + r % 255));
          auto aw = kernel.wait_for(1);
          co_await aw;
        }
      });
    });
    std::printf("wildcard         %4d waiters x %4d rounds: %8.2f ms "
                "(%llu event wakeups)\n",
                waiters, rounds, result.best_ms,
                static_cast<unsigned long long>(
                    result.sim.kernel.wakeups_event));
    json.set("wildcard_ms", result.best_ms);
    json.set("wildcard_wakeups",
             static_cast<double>(result.sim.kernel.wakeups_event));
  }

  // ---- 4. condition waiters: four-phase handshakes via wait until ----
  // Condition re-evaluation is inherently O(condition waiters) per commit;
  // the win is not scanning every non-condition process along the way.
  {
    const int pairs = smoke ? 16 : 96;
    const int words = smoke ? 32 : 128;
    auto result = run_workload("condition", repeats, [&](Kernel& kernel) {
      for (int p = 0; p < pairs; ++p) {
        kernel.add_signal_field(key("REQ" + std::to_string(p)), BitVector(1));
        kernel.add_signal_field(key("ACK" + std::to_string(p)), BitVector(1));
      }
      for (int p = 0; p < pairs; ++p) {
        kernel.add_process(
            "send" + std::to_string(p), [&kernel, p, words]() -> SimTask {
              const FieldKey req{"REQ" + std::to_string(p), ""};
              const FieldKey ack{"ACK" + std::to_string(p), ""};
              for (int i = 0; i < words; ++i) {
                kernel.schedule_signal(req, BitVector::from_uint(1, 1));
                { auto aw = kernel.wait_for(1); co_await aw; }
                {
                  auto cond = [&kernel, &ack]() {
                    return kernel.signal_value(ack).to_uint() == 1;
                  };
                  auto aw = kernel.wait_until(cond);
                  co_await aw;
                }
                kernel.schedule_signal(req, BitVector::from_uint(1, 0));
                { auto aw = kernel.wait_for(1); co_await aw; }
                {
                  auto cond = [&kernel, &ack]() {
                    return kernel.signal_value(ack).to_uint() == 0;
                  };
                  auto aw = kernel.wait_until(cond);
                  co_await aw;
                }
              }
            });
        kernel.add_process(
            "recv" + std::to_string(p), [&kernel, p, words]() -> SimTask {
              const FieldKey req{"REQ" + std::to_string(p), ""};
              const FieldKey ack{"ACK" + std::to_string(p), ""};
              for (int i = 0; i < words; ++i) {
                {
                  auto cond = [&kernel, &req]() {
                    return kernel.signal_value(req).to_uint() == 1;
                  };
                  auto aw = kernel.wait_until(cond);
                  co_await aw;
                }
                kernel.schedule_signal(ack, BitVector::from_uint(1, 1));
                {
                  auto cond = [&kernel, &req]() {
                    return kernel.signal_value(req).to_uint() == 0;
                  };
                  auto aw = kernel.wait_until(cond);
                  co_await aw;
                }
                kernel.schedule_signal(ack, BitVector::from_uint(1, 0));
              }
            });
      }
    });
    std::printf("condition        %4d pairs   x %4d words:  %8.2f ms "
                "(%llu condition wakeups)\n",
                pairs, words, result.best_ms,
                static_cast<unsigned long long>(
                    result.sim.kernel.wakeups_condition));
    json.set("condition_ms", result.best_ms);
    json.set("condition_wakeups",
             static_cast<double>(result.sim.kernel.wakeups_condition));
  }

  // ---- 5. FLC example through the interpreter, per engine ----
  // End-to-end: compile/intern time plus data-plane execution on the
  // paper's fuzzy-logic controller spec. Run once per engine so the
  // bytecode VM's speedup over the AST reference walker is recorded.
  {
    const int flc_repeats = smoke ? 1 : 5;
    const spec::System flc = suite::make_flc_full();
    const char* engine_names[2] = {"vm", "ast"};
    double engine_ms[2] = {1e300, 1e300};
    std::uint64_t end_time[2] = {0, 0};
    for (Engine engine : {Engine::kVm, Engine::kAst}) {
      const int idx = engine == Engine::kVm ? 0 : 1;
      for (int rep = 0; rep < flc_repeats; ++rep) {
        const auto start = Clock::now();
        SimulationRun run = simulate(flc, 1'000'000, false, {}, engine);
        const auto stop = Clock::now();
        if (!run.result.status.is_ok()) {
          std::printf("FLC simulation (%s) failed: %s\n", engine_names[idx],
                      run.result.status.to_string().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (ms < engine_ms[idx]) engine_ms[idx] = ms;
        end_time[idx] = run.result.end_time;
      }
    }
    if (end_time[0] != end_time[1]) {
      std::printf("FLC engines disagree on end_time: vm=%llu ast=%llu\n",
                  static_cast<unsigned long long>(end_time[0]),
                  static_cast<unsigned long long>(end_time[1]));
      return 1;
    }
    const double speedup = engine_ms[0] > 0 ? engine_ms[1] / engine_ms[0] : 0;
    std::printf("flc_interpreter  vm %8.2f ms | ast %8.2f ms | %.2fx "
                "(%llu cycles)\n",
                engine_ms[0], engine_ms[1], speedup,
                static_cast<unsigned long long>(end_time[0]));
    // flc_interpreter_ms keeps its historical meaning: the default engine.
    json.set("flc_interpreter_ms", engine_ms[0]);
    json.set("flc_interpreter_vm_ms", engine_ms[0]);
    json.set("flc_interpreter_ast_ms", engine_ms[1]);
    json.set("flc_speedup", speedup);
    json.set("flc_end_time", static_cast<double>(end_time[0]));
  }

  // ---- 6. dense wakeups through the interpreter, per engine ----
  // A spec-level workload dominated by data-plane interpretation: one
  // driver toggles CLK every cycle, each listener wakes on every edge and
  // runs an arithmetic inner loop. Kernel scheduling is identical across
  // engines, so the ratio isolates AST walking vs bytecode dispatch.
  {
    const int listeners = smoke ? 4 : 16;
    const int rounds = smoke ? 32 : 512;
    const int inner = 16;
    spec::System dense("dense_wakeup");
    dense.add_signal(spec::Signal{"CLK", {spec::SignalField{"", 1}}});
    for (int l = 0; l < listeners; ++l) {
      const std::string acc = "ACC" + std::to_string(l);
      dense.add_variable(
          spec::Variable(acc, spec::Type::integer(32), spec::Value::integer(l)));
      spec::Process p;
      p.name = "listen" + std::to_string(l);
      p.body = {spec::for_stmt(
          "r", spec::lit(1), spec::lit(rounds),
          {spec::wait_on({spec::SignalFieldId{"CLK", ""}}),
           spec::for_stmt(
               "k", spec::lit(1), spec::lit(inner),
               {spec::assign(
                   acc, spec::mod(spec::add(spec::mul(spec::var(acc),
                                                      spec::lit(5)),
                                            spec::add(spec::var("k"),
                                                      spec::var("r"))),
                                  spec::lit(9973)))})})};
      dense.add_process(std::move(p));
    }
    {
      spec::Process p;
      p.name = "driver";
      p.body = {spec::for_stmt(
          "r", spec::lit(1), spec::lit(rounds),
          {spec::sig_assign("CLK", "", spec::mod(spec::var("r"), spec::lit(2))),
           spec::wait_for(1)})};
      dense.add_process(std::move(p));
    }

    const char* engine_names[2] = {"vm", "ast"};
    double engine_ms[2] = {1e300, 1e300};
    std::uint64_t end_time[2] = {0, 0};
    for (Engine engine : {Engine::kVm, Engine::kAst}) {
      const int idx = engine == Engine::kVm ? 0 : 1;
      for (int rep = 0; rep < repeats; ++rep) {
        const auto start = Clock::now();
        SimulationRun run = simulate(dense, 10'000'000, false, {}, engine);
        const auto stop = Clock::now();
        if (!run.result.status.is_ok()) {
          std::printf("dense_wakeup (%s) failed: %s\n", engine_names[idx],
                      run.result.status.to_string().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (ms < engine_ms[idx]) engine_ms[idx] = ms;
        end_time[idx] = run.result.end_time;
      }
    }
    if (end_time[0] != end_time[1]) {
      std::printf("dense_wakeup engines disagree on end_time: vm=%llu "
                  "ast=%llu\n",
                  static_cast<unsigned long long>(end_time[0]),
                  static_cast<unsigned long long>(end_time[1]));
      return 1;
    }
    const double speedup = engine_ms[0] > 0 ? engine_ms[1] / engine_ms[0] : 0;
    std::printf("dense_wakeup     vm %8.2f ms | ast %8.2f ms | %.2fx "
                "(%d listeners x %d rounds)\n",
                engine_ms[0], engine_ms[1], speedup, listeners, rounds);
    json.set("dense_wakeup_vm_ms", engine_ms[0]);
    json.set("dense_wakeup_ast_ms", engine_ms[1]);
    json.set("dense_wakeup_speedup", speedup);
  }

  // ---- 7. dense protocol transfers: optimized vs reference VM ----
  // A protocol-refined system streaming an array through a narrow
  // generated bus, word by word — the workload the superinstruction
  // optimizer (sim/bytecode/optimizer.hpp) targets. Both timings use the
  // bytecode VM; only IFSYN_SIM_OPT differs, so the ratio isolates the
  // bulk-transfer + peephole rewrites. The end times must agree
  // byte-for-byte (the optimizer's suspension-point equivalence contract).
  {
    const int streams = smoke ? 2 : 4;
    const int elems = smoke ? 4 : 16;
    const int passes = smoke ? 2 : 32;
    // `streams` identical producer/consumer loops, each over its own
    // variable and its own generated bus. The streams run in lockstep, so
    // their per-word waits coalesce onto shared kernel instants — the
    // wall time is dominated by the VM's per-word dispatch work, which is
    // exactly what the optimizer rewrites.
    spec::System xfer("xfer");
    partition::ModuleAssignment m1;
    m1.module = "M1";
    partition::ModuleAssignment m2;
    m2.module = "M2";
    for (int s = 0; s < streams; ++s) {
      const std::string v = "V" + std::to_string(s);
      // 64-bit elements over a 4-bit bus: 16 words per element, so the
      // per-word transfer loops dominate the per-element bookkeeping.
      xfer.add_variable(
          spec::Variable(v, spec::Type::array(spec::Type::bits(64), elems)));
      spec::Process p;
      p.name = "P" + std::to_string(s);
      p.locals.emplace_back("ACC", spec::Type::integer(32),
                            spec::Value::integer(1));
      p.locals.emplace_back("TMP", spec::Type::integer(32));
      p.body = {spec::for_stmt(
          "r", spec::lit(1), spec::lit(passes),
          {spec::for_stmt("i", spec::lit(0), spec::lit(elems - 1),
                          {spec::assign(spec::lv_idx(v, spec::var("i")),
                                        spec::add(spec::var("i"),
                                                  spec::var("r")))}),
           spec::for_stmt(
               "j", spec::lit(0), spec::lit(elems - 1),
               {spec::assign("TMP", spec::aref(v, spec::var("j"))),
                spec::assign("ACC", spec::add(spec::var("ACC"),
                                              spec::var("TMP")))})})};
      m1.processes.push_back(p.name);
      m2.variables.push_back(v);
      xfer.add_process(std::move(p));
    }
    Status status = partition::apply_partition(xfer, {m1, m2});
    // One bus per stream: channels derive in process declaration order,
    // two per stream (write + read), so CH(2s)/CH(2s+1) belong to Ps.
    for (int s = 0; status.is_ok() && s < streams; ++s) {
      const std::string bus = "FB" + std::to_string(s);
      status = partition::group_channels(
          xfer, bus,
          {"CH" + std::to_string(2 * s), "CH" + std::to_string(2 * s + 1)});
      if (status.is_ok()) xfer.find_bus(bus)->width = 4;
    }
    if (status.is_ok()) {
      protocol::ProtocolGenOptions options;
      options.protocol = spec::ProtocolKind::kHalfHandshake;
      options.arbitrate = true;
      protocol::ProtocolGenerator generator(options);
      status = generator.generate_all(xfer);
    }
    if (!status.is_ok()) {
      std::printf("sim_opt_xfer setup failed: %s\n",
                  status.to_string().c_str());
      return 1;
    }

    const char* saved = std::getenv("IFSYN_SIM_OPT");
    const std::string saved_value = saved != nullptr ? saved : "";
    // [0] = optimized VM, [1] = reference VM.
    double level_ms[2] = {1e300, 1e300};
    std::uint64_t end_time[2] = {0, 0};
    // Interleave the legs within each repetition so host-speed drift
    // (frequency scaling, background load) biases all sides equally
    // instead of whichever leg happened to run second.
    const int opt_repeats = smoke ? 1 : 5;
    for (int rep = 0; rep < opt_repeats; ++rep) {
      for (int idx = 0; idx < 2; ++idx) {
        ::setenv("IFSYN_SIM_OPT", idx == 1 ? "0" : "1", 1);
        const auto start = Clock::now();
        SimulationRun run =
            simulate(xfer, 100'000'000, false, {}, Engine::kVm);
        const auto stop = Clock::now();
        if (!run.result.status.is_ok()) {
          std::printf("sim_opt_xfer (leg=%d) failed: %s\n", idx,
                      run.result.status.to_string().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (ms < level_ms[idx]) level_ms[idx] = ms;
        end_time[idx] = run.result.end_time;
      }
    }
    if (saved != nullptr) {
      ::setenv("IFSYN_SIM_OPT", saved_value.c_str(), 1);
    } else {
      ::unsetenv("IFSYN_SIM_OPT");
    }
    if (end_time[0] != end_time[1]) {
      std::printf("sim_opt_xfer legs disagree on end_time: opt=%llu "
                  "ref=%llu\n",
                  static_cast<unsigned long long>(end_time[0]),
                  static_cast<unsigned long long>(end_time[1]));
      return 1;
    }
    const double speedup =
        level_ms[0] > 0 ? level_ms[1] / level_ms[0] : 0;
    std::printf("sim_opt_xfer    opt %8.2f ms | ref %8.2f ms | %.2fx opt/ref "
                "(%d streams x %d elems x %d passes, %llu cycles)\n",
                level_ms[0], level_ms[1], speedup, streams, elems, passes,
                static_cast<unsigned long long>(end_time[0]));
    json.set("sim_opt_xfer_opt_ms", level_ms[0]);
    json.set("sim_opt_xfer_ref_ms", level_ms[1]);
    json.set("sim_opt_speedup_xfer", speedup);
    json.set("sim_opt_xfer_end_time", static_cast<double>(end_time[0]));
  }

  // Floors on single-machine expectations (bench_compare.py
  // --serial-floor) gate on this: the opt-over-unopt ratio is valid on
  // any core count, unlike the parallel-scaling floors.
  json.set("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()));

  json.write();
  return 0;
}
