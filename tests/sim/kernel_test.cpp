// Unit tests for the discrete-event kernel: delta-cycle signal semantics,
// wait disciplines, process completion/restart, bus locks, tracing.
#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "sim/task.hpp"

namespace ifsyn::sim {
namespace {

FieldKey key(const std::string& sig, const std::string& field = "") {
  return FieldKey{sig, field};
}

TEST(KernelTest, EmptyRunQuiesces) {
  Kernel kernel;
  SimResult result = kernel.run();
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.end_time, 0u);
  EXPECT_TRUE(result.processes.empty());
}

TEST(KernelTest, ProcessRunsToCompletion) {
  Kernel kernel;
  int steps = 0;
  kernel.add_process("p", [&]() -> SimTask {
    ++steps;
    co_return;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(steps, 1);
  const ProcessStats* stats = result.find("p");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->finish_time, 0u);
}

TEST(KernelTest, WaitForAdvancesTime) {
  Kernel kernel;
  std::uint64_t seen = 0;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(7); co_await aw; }
    seen = kernel.now();
    { auto aw = kernel.wait_for(5); co_await aw; }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(result.end_time, 12u);
  EXPECT_EQ(result.find("p")->finish_time, 12u);
}

TEST(KernelTest, WaitForZeroDoesNotSuspend) {
  Kernel kernel;
  bool done = false;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(0); co_await aw; }
    done = true;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(result.end_time, 0u);
}

TEST(KernelTest, SignalAssignmentCommitsAtDeltaBoundary) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  BitVector seen_before, seen_after;
  kernel.add_process("writer", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 42));
    seen_before = kernel.signal_value(key("S"));  // still old value
    { auto aw = kernel.wait_for(1); co_await aw; }
    seen_after = kernel.signal_value(key("S"));
    co_return;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(seen_before.to_uint(), 0u);
  EXPECT_EQ(seen_after.to_uint(), 42u);
}

TEST(KernelTest, LastWriteInDeltaWins) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  kernel.add_process("writer", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 1));
    kernel.schedule_signal(key("S"), BitVector::from_uint(8, 2));
    co_return;
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(kernel.signal_value(key("S")).to_uint(), 2u);
}

TEST(KernelTest, WaitOnWakesOnEvent) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  std::uint64_t woke_at = 999;
  kernel.add_process("waiter", [&]() -> SimTask {
    // NOTE: every co_await in these tests awaits a named local, never a
    // prvalue: GCC 12 both rejects braced-init-lists inside co_await
    // operands ("array used as initializer") and miscompiles non-trivial
    // temporaries there (double destruction).
    std::vector<FieldKey> sensitivity{key("S")};
    auto aw = kernel.wait_on(std::move(sensitivity));
    co_await aw;
    woke_at = kernel.now();
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(4); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(1, 1));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(woke_at, 4u);
}

TEST(KernelTest, WaitOnIgnoresValuelessCommit) {
  // Re-writing the same value is not an event.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  bool woke = false;
  kernel.add_process("waiter", [&]() -> SimTask {
    { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    woke = true;
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(1, 0));  // no-op
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_FALSE(woke);
  EXPECT_FALSE(result.find("waiter")->completed);
}

TEST(KernelTest, WaitOnEmptyFieldMatchesAnyFieldOfSignal) {
  Kernel kernel;
  kernel.add_signal_field(key("B", "START"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B", "DATA"), BitVector::from_uint(8, 0));
  bool woke = false;
  kernel.add_process("waiter", [&]() -> SimTask {
    { std::vector<FieldKey> sens{key("B", "")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    woke = true;
  });
  kernel.add_process("driver", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "DATA"), BitVector::from_uint(8, 5));
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_TRUE(woke);
}

TEST(KernelTest, WaitUntilIsLevelSensitive) {
  // Condition already true -> no suspension (documented deviation from
  // strict VHDL, required for robust generated handshakes).
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 1));
  bool done = false;
  kernel.add_process("p", [&]() -> SimTask {
    auto cond = [&]() {
      return kernel.signal_value(key("S")).to_uint() == 1;
    };
    auto aw = kernel.wait_until(cond);
    co_await aw;
    done = true;
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_TRUE(done);
  EXPECT_EQ(result.end_time, 0u);
}

TEST(KernelTest, WaitUntilWakesWhenConditionBecomesTrue) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  std::uint64_t woke_at = 0;
  kernel.add_process("waiter", [&]() -> SimTask {
    auto cond = [&]() {
      return kernel.signal_value(key("S")).to_uint() >= 3;
    };
    auto aw = kernel.wait_until(cond);
    co_await aw;
    woke_at = kernel.now();
  });
  kernel.add_process("driver", [&]() -> SimTask {
    for (std::uint64_t v = 1; v <= 5; ++v) {
      { auto aw = kernel.wait_for(10); co_await aw; }
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, v));
    }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(woke_at, 30u);  // S reaches 3 at t=30
}

TEST(KernelTest, TwoProcessHandshake) {
  // Minimal four-phase handshake straight against the kernel API.
  Kernel kernel;
  kernel.add_signal_field(key("START"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("DONE"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("DATA"), BitVector::from_uint(8, 0));
  std::vector<std::uint64_t> received;

  auto hi = [&](const char* sig) {
    return kernel.signal_value(key(sig)).to_uint() == 1;
  };

  kernel.add_process("sender", [&]() -> SimTask {
    for (std::uint64_t word = 10; word < 13; ++word) {
      kernel.schedule_signal(key("DATA"), BitVector::from_uint(8, word));
      kernel.schedule_signal(key("START"), BitVector::from_uint(1, 1));
      { auto aw = kernel.wait_for(1); co_await aw; }
      {
        auto cond = [&]() { return hi("DONE"); };
        auto aw = kernel.wait_until(cond);
        co_await aw;
      }
      kernel.schedule_signal(key("START"), BitVector::from_uint(1, 0));
      { auto aw = kernel.wait_for(1); co_await aw; }
      {
        auto cond = [&]() { return !hi("DONE"); };
        auto aw = kernel.wait_until(cond);
        co_await aw;
      }
    }
  });
  kernel.add_process("receiver", [&]() -> SimTask {
    for (int word = 0; word < 3; ++word) {
      {
        auto cond = [&]() { return hi("START"); };
        auto aw = kernel.wait_until(cond);
        co_await aw;
      }
      received.push_back(kernel.signal_value(key("DATA")).to_uint());
      kernel.schedule_signal(key("DONE"), BitVector::from_uint(1, 1));
      {
        auto cond = [&]() { return !hi("START"); };
        auto aw = kernel.wait_until(cond);
        co_await aw;
      }
      kernel.schedule_signal(key("DONE"), BitVector::from_uint(1, 0));
    }
  });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_TRUE(result.find("sender")->completed);
  EXPECT_TRUE(result.find("receiver")->completed);
  EXPECT_EQ(received, (std::vector<std::uint64_t>{10, 11, 12}));
  // 2 cycles per word minimum (Eq. 2).
  EXPECT_EQ(result.end_time, 6u);
}

TEST(KernelTest, RestartingProcessReactivates) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  int activations = 0;
  kernel.add_process(
      "server",
      [&]() -> SimTask {
        { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
        ++activations;
      },
      /*restarts=*/true);
  kernel.add_process("driver", [&]() -> SimTask {
    for (std::uint64_t v = 1; v <= 3; ++v) {
      { auto aw = kernel.wait_for(2); co_await aw; }
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, v));
    }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(activations, 3);
  EXPECT_GE(result.find("server")->activations, 3u);
}

TEST(KernelTest, BusLockSerializesAndAccountsWaiting) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  std::vector<std::string> order;
  // Parameters by value: a coroutine outlives its invocation, so
  // reference parameters to temporaries would dangle across suspension.
  auto worker = [&](std::string name, std::uint64_t start) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("B"); co_await aw; }
    order.push_back(name + ":in@" + std::to_string(kernel.now()));
    { auto aw = kernel.wait_for(10); co_await aw; }
    order.push_back(name + ":out@" + std::to_string(kernel.now()));
    kernel.release_bus("B");
  };
  kernel.add_process("a", [&]() { return worker("a", 0); });
  kernel.add_process("b", [&]() { return worker("b", 1); });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a:in@0");
  EXPECT_EQ(order[1], "a:out@10");
  EXPECT_EQ(order[2], "b:in@10");
  EXPECT_EQ(order[3], "b:out@20");
  EXPECT_EQ(result.find("b")->bus_wait_cycles, 9u);
  EXPECT_EQ(result.find("a")->bus_wait_cycles, 0u);
}

TEST(KernelTest, BusLockFifoOrder) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  std::vector<std::string> grants;
  auto worker = [&](std::string name, std::uint64_t start) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("B"); co_await aw; }
    grants.push_back(name);
    { auto aw = kernel.wait_for(5); co_await aw; }
    kernel.release_bus("B");
  };
  kernel.add_process("p1", [&]() { return worker("p1", 0); });
  kernel.add_process("p2", [&]() { return worker("p2", 1); });
  kernel.add_process("p3", [&]() { return worker("p3", 2); });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(grants, (std::vector<std::string>{"p1", "p2", "p3"}));
}

TEST(KernelTest, MaxTimeAborts) {
  Kernel kernel;
  kernel.add_process("p", [&]() -> SimTask {
    for (;;) { auto aw = kernel.wait_for(100); co_await aw; }
  });
  SimResult result = kernel.run(/*max_time=*/1000);
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
}

TEST(KernelTest, ProcessExceptionSurfacesAsSimulationError) {
  Kernel kernel;
  kernel.add_process("p", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    IFSYN_ASSERT_MSG(false, "deliberate failure");
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("deliberate failure"),
            std::string::npos);
}

TEST(KernelTest, ZeroDelayOscillationIsDetected) {
  // Two processes toggling each other's condition without consuming time:
  // the delta-cycle limit must abort the run instead of hanging.
  Kernel kernel;
  kernel.add_signal_field(key("A"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B"), BitVector::from_uint(1, 0));
  kernel.add_process("ping", [&]() -> SimTask {
    for (;;) {
      kernel.schedule_signal(
          key("A"), ~kernel.signal_value(key("A")));
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("B")});
      co_await aw;
    }
  });
  kernel.add_process("pong", [&]() -> SimTask {
    for (;;) {
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("A")});
      co_await aw;
      kernel.schedule_signal(
          key("B"), ~kernel.signal_value(key("B")));
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("delta"), std::string::npos)
      << result.status;
}

TEST(KernelTest, DeltaOverflowErrorNamesTheOffendingInstant) {
  // The oscillation only starts after 42 time units; the abort message
  // must point at t=42, not at the start of the run.
  Kernel kernel;
  kernel.add_signal_field(key("A"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B"), BitVector::from_uint(1, 0));
  kernel.add_process("ping", [&]() -> SimTask {
    { auto aw = kernel.wait_for(42); co_await aw; }
    for (;;) {
      kernel.schedule_signal(key("A"), ~kernel.signal_value(key("A")));
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("B")});
      co_await aw;
    }
  });
  kernel.add_process("pong", [&]() -> SimTask {
    for (;;) {
      auto aw = kernel.wait_on(std::vector<FieldKey>{key("A")});
      co_await aw;
      kernel.schedule_signal(key("B"), ~kernel.signal_value(key("B")));
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("delta"), std::string::npos)
      << result.status;
  EXPECT_NE(result.status.message().find("t=42"), std::string::npos)
      << result.status;
  EXPECT_GE(result.kernel.max_deltas_in_instant, 100'000u);
}

TEST(KernelTest, TraceCapAbortsWithErrorInsteadOfGrowingUnbounded) {
  // A chatty process with tracing on must hit the configured cap and fail
  // with a descriptive status, not exhaust memory.
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.set_trace_limit(10);
  kernel.add_signal_field(key("S"), BitVector::from_uint(32, 0));
  kernel.add_process("chatty", [&]() -> SimTask {
    for (std::uint32_t i = 1; i <= 1000; ++i) {
      kernel.schedule_signal(key("S"), BitVector::from_uint(32, i));
      auto aw = kernel.wait_for(1);
      co_await aw;
    }
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
  EXPECT_NE(result.status.message().find("trace"), std::string::npos)
      << result.status;
  EXPECT_NE(result.status.message().find("10"), std::string::npos)
      << result.status;
  EXPECT_LE(kernel.trace().size(), 10u);
}

TEST(KernelTest, TraceUnderCapSucceeds) {
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.set_trace_limit(10);
  kernel.add_signal_field(key("S"), BitVector::from_uint(8, 0));
  kernel.add_process("p", [&]() -> SimTask {
    for (std::uint32_t i = 1; i <= 5; ++i) {
      kernel.schedule_signal(key("S"), BitVector::from_uint(8, i));
      auto aw = kernel.wait_for(1);
      co_await aw;
    }
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(kernel.trace().size(), 5u);
}

TEST(KernelTest, WideSignalValuesFlowThrough) {
  Kernel kernel;
  kernel.add_signal_field(key("WIDE"), BitVector(130));
  BitVector seen;
  kernel.add_process("writer", [&]() -> SimTask {
    BitVector v(130);
    v.set_bit(0, true);
    v.set_bit(129, true);
    kernel.schedule_signal(key("WIDE"), std::move(v));
    { auto aw = kernel.wait_for(1); co_await aw; }
    seen = kernel.signal_value(key("WIDE"));
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_TRUE(seen.bit(0));
  EXPECT_TRUE(seen.bit(129));
  EXPECT_FALSE(seen.bit(64));
}

TEST(KernelTest, SignalWidthMismatchAsserts) {
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector(8));
  EXPECT_THROW(kernel.schedule_signal(key("S"), BitVector(9)), InternalError);
  EXPECT_THROW(kernel.signal_value(key("GHOST")), InternalError);
}

TEST(KernelTest, ReleaseByNonHolderAsserts) {
  Kernel kernel;
  kernel.add_bus_lock("B");
  kernel.add_process("p", [&]() -> SimTask {
    kernel.release_bus("B");  // never acquired
    co_return;
  });
  SimResult result = kernel.run();
  EXPECT_EQ(result.status.code(), StatusCode::kSimulationError);
}

TEST(KernelTest, TraceRecordsCommittedChanges) {
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.add_signal_field(key("S"), BitVector::from_uint(4, 0));
  kernel.add_process("p", [&]() -> SimTask {
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, 1));
    { auto aw = kernel.wait_for(3); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, 2));
    co_return;
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 2u);
  EXPECT_EQ(kernel.trace()[0].time, 0u);
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 1u);
  EXPECT_EQ(kernel.trace()[1].time, 3u);
  EXPECT_EQ(kernel.trace()[1].value.to_uint(), 2u);
}

TEST(KernelTest, QuiescenceWithWaitingServerIsNormal) {
  // A server parked on an event at the end of simulation is not an error;
  // its stats just show no completion.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  kernel.add_process("server", [&]() -> SimTask {
    for (;;) {
      { std::vector<FieldKey> sens{key("S")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
    }
  });
  kernel.add_process("main", [&]() -> SimTask {
    { auto aw = kernel.wait_for(5); co_await aw; }
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.end_time, 5u);
  EXPECT_TRUE(result.find("main")->completed);
  EXPECT_FALSE(result.find("server")->completed);
}

TEST(KernelTest, SecondRunStartsAFreshTrace) {
  // Regression: run() used to reset stats but keep appending to the
  // previous run's trace, so re-running a kernel produced a waveform with
  // stale leading entries (and a VCD with duplicated history).
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.add_signal_field(key("S"), BitVector::from_uint(4, 0));
  int runs = 0;
  kernel.add_process("p", [&]() -> SimTask {
    ++runs;
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(4, runs));
  });

  ASSERT_TRUE(kernel.run().status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 1u);
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 1u);

  SimResult second = kernel.run();
  ASSERT_TRUE(second.status.is_ok());
  ASSERT_EQ(kernel.trace().size(), 1u) << "second run appended to old trace";
  EXPECT_EQ(kernel.trace()[0].value.to_uint(), 2u);
  EXPECT_EQ(second.kernel.trace_entries, 1u);
}

TEST(KernelTest, SignalKeysReturnsDeclarationOrder) {
  Kernel kernel;
  kernel.add_signal_field(key("Z"), BitVector(1));
  kernel.add_signal_field(key("A", "F1"), BitVector(8));
  kernel.add_signal_field(key("A", "F0"), BitVector(8));
  const std::vector<FieldKey>& keys = kernel.signal_keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], key("Z"));
  EXPECT_EQ(keys[1], key("A", "F1"));
  EXPECT_EQ(keys[2], key("A", "F0"));
  // The cached list is stable: repeated calls return the same object.
  EXPECT_EQ(&kernel.signal_keys(), &keys);
}

TEST(KernelTest, InternedIdsMirrorTheNameApi) {
  Kernel kernel;
  kernel.add_signal_field(key("X"), BitVector::from_uint(8, 7));
  kernel.add_signal_field(key("B", "DATA"), BitVector(8));
  const SignalId x = kernel.signal_id(key("X"));
  const SignalId data = kernel.signal_id(key("B", "DATA"));
  EXPECT_EQ(x, 0u);
  EXPECT_EQ(data, 1u);
  EXPECT_EQ(kernel.initial_value(x).to_uint(), 7u);

  kernel.add_process("p", [&]() -> SimTask {
    kernel.schedule_signal(data, BitVector::from_uint(8, 0x5a));
    { auto aw = kernel.wait_for(1); co_await aw; }
  });
  kernel.add_process("w", [&]() -> SimTask {
    const std::vector<SignalId> sens{data};
    {
      auto aw = kernel.wait_on(std::span<const SignalId>(sens));
      co_await aw;
    }
    kernel.schedule_signal(x, kernel.signal_value(data));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(kernel.signal_value(key("X")).to_uint(), 0x5au);
  EXPECT_EQ(kernel.signal_value(x).to_uint(), 0x5au);
  EXPECT_EQ(result.kernel.wakeups_event, 1u);
}

TEST(KernelTest, WaitSetsSmallAndLargeWakeOnEveryMemberAcrossRuns) {
  // A process parks on wait sets of 1 to 7 signals (past the kernel's
  // inline node storage) and is woken each time by a commit to the last
  // member; the same kernel then runs again, reusing that storage.
  Kernel kernel;
  std::vector<SignalId> ids;
  for (int i = 0; i < 7; ++i) {
    const FieldKey k = key("S" + std::to_string(i));
    kernel.add_signal_field(k, BitVector(4));
    ids.push_back(kernel.signal_id(k));
  }
  std::vector<std::uint64_t> woke;
  kernel.add_process("w", [&]() -> SimTask {
    for (std::size_t n = 1; n <= ids.size(); ++n) {
      auto aw = kernel.wait_on(std::span<const SignalId>(ids).first(n));
      co_await aw;
      woke.push_back(kernel.now());
    }
  });
  kernel.add_process("driver", [&]() -> SimTask {
    for (std::size_t n = 1; n <= ids.size(); ++n) {
      { auto aw = kernel.wait_for(1); co_await aw; }
      kernel.schedule_signal(
          ids[n - 1], BitVector::from_uint(4, kernel.signal_value(ids[n - 1])
                                                      .to_uint() + 1));
    }
  });
  for (int run = 0; run < 2; ++run) {
    woke.clear();
    const SimResult result = kernel.run();
    ASSERT_TRUE(result.status.is_ok()) << result.status;
    EXPECT_EQ(woke, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}))
        << "run " << run;
    EXPECT_EQ(result.kernel.wakeups_event, 7u);
  }
}

TEST(KernelTest, WildcardSensitivityWakesOnAnyFieldCommit) {
  // FieldKey{sig, ""} subscribes to the whole record: commits to different
  // fields must each wake the waiter, and a commit to an unrelated signal
  // must not.
  Kernel kernel;
  kernel.add_signal_field(key("B", "START"), BitVector(1));
  kernel.add_signal_field(key("B", "DATA"), BitVector(8));
  kernel.add_signal_field(key("OTHER"), BitVector(1));
  std::vector<std::uint64_t> wake_times;
  kernel.add_process("w", [&]() -> SimTask {
    for (int i = 0; i < 2; ++i) {
      { std::vector<FieldKey> sens{key("B")}; auto aw = kernel.wait_on(std::move(sens)); co_await aw; }
      wake_times.push_back(kernel.now());
    }
  });
  kernel.add_process("driver", [&]() -> SimTask {
    kernel.schedule_signal(key("OTHER"), BitVector::from_uint(1, 1));
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "START"), BitVector::from_uint(1, 1));
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("B", "DATA"), BitVector::from_uint(8, 0x42));
  });
  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], 1u);  // B.START commit; OTHER did not wake it
  EXPECT_EQ(wake_times[1], 2u);  // B.DATA commit
  EXPECT_EQ(result.kernel.wakeups_event, 2u);
}

TEST(KernelTest, BusLockFairnessUnderContention) {
  // Three waiters queue behind a holder; grants must come in FIFO order
  // and the accounting must attribute each waiter's queueing time.
  Kernel kernel;
  kernel.add_bus_lock("BUS");
  std::vector<std::string> grant_order;
  kernel.add_process("holder", [&]() -> SimTask {
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    grant_order.push_back("holder");
    { auto aw = kernel.wait_for(4); co_await aw; }
    kernel.release_bus("BUS");
  });
  // `name` by value: reference parameters would dangle once the factory's
  // temporary dies at the coroutine's first suspension.
  auto contender = [&](std::string name, std::uint64_t start,
                       std::uint64_t hold) -> SimTask {
    { auto aw = kernel.wait_for(start); co_await aw; }
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    grant_order.push_back(name);
    { auto aw = kernel.wait_for(hold); co_await aw; }
    kernel.release_bus("BUS");
  };
  // Queue order is arrival order: c3 (t=1), c1 (t=2), c2 (t=3) — not
  // registration or name order.
  kernel.add_process("c1", [&]() { return contender("c1", 2, 2); });
  kernel.add_process("c2", [&]() { return contender("c2", 3, 2); });
  kernel.add_process("c3", [&]() { return contender("c3", 1, 2); });

  SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok());
  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order[0], "holder");
  EXPECT_EQ(grant_order[1], "c3");
  EXPECT_EQ(grant_order[2], "c1");
  EXPECT_EQ(grant_order[3], "c2");

  const BusStats* bus = result.find_bus("BUS");
  ASSERT_NE(bus, nullptr);
  EXPECT_EQ(bus->acquisitions, 4u);
  EXPECT_EQ(bus->contended_acquisitions, 3u);
  // holder releases at t=4: c3 (queued at t=1) waited 3. c3 releases at
  // t=6: c1 (queued at t=2) waited 4. c1 releases at t=8: c2 (queued at
  // t=3) waited 5. Total queueing 3 + 4 + 5 = 12.
  EXPECT_EQ(bus->wait_cycles, 12u);
  EXPECT_EQ(result.find("c3")->bus_wait_cycles, 3u);
  EXPECT_EQ(result.find("c1")->bus_wait_cycles, 4u);
  EXPECT_EQ(result.find("c2")->bus_wait_cycles, 5u);
  EXPECT_EQ(bus->hold_cycles, 4u + 2u + 2u + 2u);
  EXPECT_EQ(result.kernel.wakeups_bus_grant, 3u);
}

// ---- read-set (sensitized) wait until ---------------------------------------

/// What one run_read_set_scenario() call observed.
struct ReadSetRun {
  int evals = 0;  ///< calls of the waiter's condition
  std::vector<TraceEntry> trace;
  KernelStats stats;
};

/// A waiter parks on `B.START = 1` while a stimulus process commits B.DATA twice
/// and then B.START; on waking, the waiter raises B.ACK. `sensitized`
/// hands the condition's read set {B.START} to the kernel; otherwise the
/// condition goes on the every-commit list.
ReadSetRun run_read_set_scenario(bool sensitized) {
  Kernel kernel;
  kernel.enable_trace(true);
  kernel.add_signal_field(key("B", "START"), BitVector::from_uint(1, 0));
  kernel.add_signal_field(key("B", "DATA"), BitVector::from_uint(8, 0));
  kernel.add_signal_field(key("B", "ACK"), BitVector::from_uint(1, 0));
  const SignalId start = kernel.signal_id(key("B", "START"));
  const std::vector<SignalId> reads{start};
  ReadSetRun out;
  kernel.add_process("waiter", [&]() -> SimTask {
    auto cond = [&]() {
      ++out.evals;
      return kernel.signal_value(start).to_uint() == 1;
    };
    std::optional<std::span<const SignalId>> set;
    if (sensitized) set = std::span<const SignalId>(reads);
    { auto aw = kernel.wait_until(cond, set); co_await aw; }
    kernel.schedule_signal(key("B", "ACK"), BitVector::from_uint(1, 1));
  });
  kernel.add_process("stimulus", [&]() -> SimTask {
    for (std::uint64_t v = 1; v <= 2; ++v) {
      { auto aw = kernel.wait_for(1); co_await aw; }
      kernel.schedule_signal(key("B", "DATA"), BitVector::from_uint(8, v));
    }
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(start, BitVector::from_uint(1, 1));
  });
  const SimResult result = kernel.run();
  EXPECT_TRUE(result.status.is_ok()) << result.status;
  out.trace = kernel.trace();
  out.stats = result.kernel;
  return out;
}

TEST(KernelTest, ReadSetConditionSkipsCommitsToFieldsItDoesNotRead) {
  const ReadSetRun sensitized = run_read_set_scenario(true);
  const ReadSetRun every_commit = run_read_set_scenario(false);

  // Park-time check + the B.START commit; the two B.DATA commits are
  // skipped. The every-commit list evaluates after those as well.
  EXPECT_EQ(sensitized.evals, 2);
  EXPECT_EQ(every_commit.evals, 4);

  // Same wake: B.ACK rises at the same time and delta, and the scheduler
  // counts agree.
  ASSERT_EQ(sensitized.trace.size(), every_commit.trace.size());
  for (std::size_t i = 0; i < sensitized.trace.size(); ++i) {
    EXPECT_EQ(sensitized.trace[i].time, every_commit.trace[i].time);
    EXPECT_EQ(sensitized.trace[i].delta, every_commit.trace[i].delta);
    EXPECT_EQ(sensitized.trace[i].key, every_commit.trace[i].key);
    EXPECT_EQ(sensitized.trace[i].value, every_commit.trace[i].value);
  }
  ASSERT_FALSE(sensitized.trace.empty());
  EXPECT_EQ(sensitized.trace.back().key, key("B", "ACK"));
  EXPECT_EQ(sensitized.trace.back().time, 3u);
  EXPECT_EQ(sensitized.stats.wakeups_condition, 1u);
  EXPECT_EQ(sensitized.stats.wakeups_condition,
            every_commit.stats.wakeups_condition);
  EXPECT_EQ(sensitized.stats.delta_cycles, every_commit.stats.delta_cycles);
}

TEST(KernelTest, ReadSetConditionEvaluatesOncePerCommit) {
  // Both fields of a (deliberately repeated) read set change in the same
  // delta: one evaluation, not one per field or per listed id.
  Kernel kernel;
  kernel.add_signal_field(key("A"), BitVector::from_uint(4, 0));
  kernel.add_signal_field(key("B"), BitVector::from_uint(4, 0));
  const std::vector<SignalId> reads{kernel.signal_id(key("A")),
                                    kernel.signal_id(key("B")),
                                    kernel.signal_id(key("A"))};
  int evals = 0;
  std::uint64_t woke_at = 0;
  kernel.add_process("waiter", [&]() -> SimTask {
    auto cond = [&]() {
      ++evals;
      return kernel.signal_value(key("A")).to_uint() +
                 kernel.signal_value(key("B")).to_uint() ==
             7;
    };
    std::optional<std::span<const SignalId>> set{reads};
    { auto aw = kernel.wait_until(cond, set); co_await aw; }
    woke_at = kernel.now();
  });
  kernel.add_process("stimulus", [&]() -> SimTask {
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("A"), BitVector::from_uint(4, 1));
    kernel.schedule_signal(key("B"), BitVector::from_uint(4, 2));
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("A"), BitVector::from_uint(4, 3));
    kernel.schedule_signal(key("B"), BitVector::from_uint(4, 4));
  });
  const SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(evals, 3);  // park, t=1 (false), t=2 (true)
  EXPECT_EQ(woke_at, 2u);
  EXPECT_EQ(result.kernel.wakeups_condition, 1u);
}

TEST(KernelTest, AbortedRunLeavesNoStaleConditionRegistrations) {
  // Run 1 parks `waiter` on a read-set condition over S and aborts at
  // max_time. Run 2's waiter only sleeps; a commit to S must neither
  // evaluate the dead condition nor wake the sleeper early.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector::from_uint(1, 0));
  const std::vector<SignalId> reads{kernel.signal_id(key("S"))};
  int run = 0;
  int evals = 0;
  kernel.add_process("waiter", [&]() -> SimTask {
    if (run == 1) {
      auto cond = [&]() {
        ++evals;
        return kernel.signal_value(key("S")).to_uint() == 1;
      };
      std::optional<std::span<const SignalId>> set{reads};
      { auto aw = kernel.wait_until(cond, set); co_await aw; }
    } else {
      { auto aw = kernel.wait_for(100); co_await aw; }
    }
  });
  kernel.add_process("stimulus", [&]() -> SimTask {
    if (run == 1) {
      for (;;) { auto aw = kernel.wait_for(10); co_await aw; }
    }
    { auto aw = kernel.wait_for(1); co_await aw; }
    kernel.schedule_signal(key("S"), BitVector::from_uint(1, 1));
  });

  run = 1;
  const SimResult aborted = kernel.run(/*max_time=*/50);
  EXPECT_EQ(aborted.status.code(), StatusCode::kSimulationError);
  EXPECT_EQ(evals, 1);  // the park-time check only

  run = 2;
  const SimResult second = kernel.run();
  ASSERT_TRUE(second.status.is_ok()) << second.status;
  EXPECT_EQ(evals, 1) << "stale condition evaluated in the second run";
  EXPECT_EQ(second.find("waiter")->finish_time, 100u);
  EXPECT_EQ(second.kernel.wakeups_condition, 0u);
}

TEST(KernelTest, AbortedRunLeavesNoUncommittedValues) {
  // Run 1 schedules S and then fails in the same delta, so the value never
  // commits. Run 2 schedules nothing: S must keep its value, with no
  // commit and no trace entry.
  Kernel kernel;
  kernel.add_signal_field(key("S"), BitVector(1));
  int run = 1;
  kernel.add_process("p", [&]() -> SimTask {
    if (run == 1) {
      kernel.schedule_signal(key("S"), BitVector::from_uint(1, 1));
      throw std::runtime_error("boom");
    }
    auto aw = kernel.wait_for(5);
    co_await aw;
  });
  EXPECT_FALSE(kernel.run().status.is_ok());
  run = 2;
  kernel.enable_trace(true);
  const SimResult result = kernel.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status;
  EXPECT_EQ(kernel.signal_value(key("S")).to_uint(), 0u);
  EXPECT_EQ(result.kernel.signal_commits, 0u);
  EXPECT_TRUE(kernel.trace().empty());
}

TEST(KernelTest, CountersPublishOnceWhenTheRunEnds) {
  // Bus hold/wait observations and engine counters are run-local: a
  // snapshot taken mid-run sees none of them, the one after run() all.
  obs::MetricsRegistry metrics;
  Kernel kernel;
  kernel.set_obs(obs::ObsContext{&metrics, nullptr});
  kernel.add_bus_lock("BUS");
  int hook_calls = 0;
  kernel.on_run_end([&] { ++hook_calls; });
  std::uint64_t mid_run_holds = 99;
  kernel.add_process("a", [&]() -> SimTask {
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    { auto aw = kernel.wait_for(3); co_await aw; }
    kernel.release_bus("BUS");
    mid_run_holds = metrics.snapshot().find("sim.bus_hold_cycles")
                        ->histogram->count;
  });
  kernel.add_process("b", [&]() -> SimTask {
    { auto aw = kernel.acquire_bus("BUS"); co_await aw; }
    { auto aw = kernel.wait_for(2); co_await aw; }
    kernel.release_bus("BUS");
  });
  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(mid_run_holds, 0u);
  EXPECT_EQ(hook_calls, 1);
  const auto snap = metrics.snapshot();
  const auto* holds = snap.find("sim.bus_hold_cycles");
  const auto* waits = snap.find("sim.bus_wait_cycles");
  ASSERT_NE(holds, nullptr);
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(holds->histogram->count, 2u);
  EXPECT_EQ(holds->histogram->sum, 5u);
  EXPECT_EQ(waits->histogram->count, 1u);
  EXPECT_EQ(waits->histogram->sum, 3u);

  ASSERT_TRUE(kernel.run().status.is_ok());
  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(metrics.snapshot().find("sim.bus_hold_cycles")->histogram->count,
            4u);
}

}  // namespace
}  // namespace ifsyn::sim
