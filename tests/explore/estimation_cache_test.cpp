#include "explore/estimation_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "explore/work_queue.hpp"

namespace ifsyn::explore {
namespace {

EstimationKey key_for(const std::string& sig, int width) {
  EstimationKey key;
  key.group_signature = sig;
  key.width = width;
  key.protocol = spec::ProtocolKind::kFullHandshake;
  return key;
}

TEST(EstimationCacheTest, ComputesOncePerKey) {
  EstimationCache cache;
  int calls = 0;
  auto compute = [&calls] {
    ++calls;
    GroupEstimate est;
    est.total_wires = 42;
    return est;
  };
  EXPECT_EQ(cache.get_or_compute(key_for("a+b", 8), compute).total_wires, 42);
  EXPECT_EQ(cache.get_or_compute(key_for("a+b", 8), compute).total_wires, 42);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EstimationCacheTest, DistinctKeysComputeSeparately) {
  EstimationCache cache;
  int calls = 0;
  auto compute = [&calls] {
    ++calls;
    return GroupEstimate{};
  };
  cache.get_or_compute(key_for("a+b", 8), compute);
  cache.get_or_compute(key_for("a+b", 9), compute);    // width differs
  cache.get_or_compute(key_for("a+c", 8), compute);    // group differs
  EstimationKey half = key_for("a+b", 8);
  half.protocol = spec::ProtocolKind::kHalfHandshake;  // protocol differs
  cache.get_or_compute(half, compute);
  EstimationKey delayed = key_for("a+b", 8);
  delayed.fixed_delay_cycles = 5;                      // delay differs
  cache.get_or_compute(delayed, compute);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(EstimationCacheTest, ConcurrentRequestsShareOneComputation) {
  EstimationCache cache;
  std::atomic<int> calls{0};
  constexpr std::size_t kLookups = 64;
  std::vector<int> results(kLookups);
  run_indexed(kLookups, /*threads=*/8, [&](std::size_t i) {
    const GroupEstimate est =
        cache.get_or_compute(key_for("shared", 4), [&calls] {
          ++calls;
          GroupEstimate e;
          e.total_wires = 7;
          return e;
        });
    results[i] = est.total_wires;
  });
  EXPECT_EQ(calls.load(), 1);
  for (int wires : results) EXPECT_EQ(wires, 7);
  // The counters are deterministic: one miss, everything else hits.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kLookups - 1);
}

TEST(EstimationCacheTest, ThrowingComputePropagatesAndDoesNotPoison) {
  // Regression: a throwing compute() used to abandon the owner's promise,
  // so every thread racing on the key blocked forever on the shared
  // future. The owner must rethrow, waiters must see the exception, and
  // the entry must be erased so a later attempt recomputes.
  EstimationCache cache;
  EXPECT_THROW(cache.get_or_compute(
                   key_for("boom", 8),
                   []() -> GroupEstimate {
                     throw std::runtime_error("estimator failed");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // poisoned entry was erased

  int calls = 0;
  const GroupEstimate est =
      cache.get_or_compute(key_for("boom", 8), [&calls] {
        ++calls;
        GroupEstimate e;
        e.total_wires = 11;
        return e;
      });
  EXPECT_EQ(est.total_wires, 11);
  EXPECT_EQ(calls, 1);
}

TEST(EstimationCacheTest, ConcurrentThrowingComputeUnblocksAllWaiters) {
  // The deadlock scenario: many threads race on one key while the owner's
  // compute throws. Every lookup must return (either with the owner's
  // exception or, after the erase, with a freshly computed value) instead
  // of blocking forever.
  EstimationCache cache;
  std::atomic<int> calls{0};
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  constexpr std::size_t kLookups = 64;
  run_indexed(kLookups, /*threads=*/8, [&](std::size_t) {
    try {
      const GroupEstimate est =
          cache.get_or_compute(key_for("flaky", 4), [&calls] {
            if (calls.fetch_add(1) == 0) {
              throw std::runtime_error("first compute fails");
            }
            GroupEstimate e;
            e.total_wires = 9;
            return e;
          });
      EXPECT_EQ(est.total_wires, 9);
      ++successes;
    } catch (const std::runtime_error&) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load() + successes.load(),
            static_cast<int>(kLookups));
  EXPECT_GE(failures.load(), 1);  // at least the owner saw the exception
}

// ---- shared-store shape: scope qualification and the LRU bound --------

TEST(EstimationCacheTest, ScopeSeparatesIdenticalSignatures) {
  EstimationCache cache;
  int calls = 0;
  auto compute_wires = [&calls](int wires) {
    return [&calls, wires] {
      ++calls;
      GroupEstimate est;
      est.total_wires = wires;
      return est;
    };
  };
  EstimationKey spec_a = key_for("a+b", 8);
  spec_a.scope = "spec-hash-A";
  EstimationKey spec_b = key_for("a+b", 8);
  spec_b.scope = "spec-hash-B";
  // Same group signature from two different specs must not collide.
  EXPECT_EQ(cache.get_or_compute(spec_a, compute_wires(10)).total_wires, 10);
  EXPECT_EQ(cache.get_or_compute(spec_b, compute_wires(20)).total_wires, 20);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get_or_compute(spec_a, compute_wires(99)).total_wires, 10);
  EXPECT_EQ(calls, 2);
}

TEST(EstimationCacheTest, TinyCapacityEvictsLeastRecentlyUsed) {
  obs::MetricsRegistry registry;
  EstimationCache cache(/*capacity=*/2, &registry.counter("h"),
                        &registry.counter("m"), &registry.counter("e"));
  int calls = 0;
  auto compute = [&calls] {
    ++calls;
    return GroupEstimate{};
  };
  cache.get_or_compute(key_for("a", 1), compute);
  cache.get_or_compute(key_for("b", 1), compute);
  cache.get_or_compute(key_for("a", 1), compute);  // a is now MRU
  cache.get_or_compute(key_for("c", 1), compute);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(calls, 3);
  // a survived its touch; b recomputes.
  cache.get_or_compute(key_for("a", 1), compute);
  EXPECT_EQ(calls, 3);
  cache.get_or_compute(key_for("b", 1), compute);
  EXPECT_EQ(calls, 4);
}

TEST(EstimationCacheTest, EvictedEntriesRecomputeCorrectValues) {
  // Hammer a capacity-1 cache across threads: every lookup must still
  // return the key's correct value no matter how eviction interleaves.
  EstimationCache cache(/*capacity=*/1);
  constexpr std::size_t kLookups = 128;
  run_indexed(kLookups, /*threads=*/8, [&](std::size_t i) {
    const int width = static_cast<int>(i % 5);
    const GroupEstimate est =
        cache.get_or_compute(key_for("g", width), [width] {
          GroupEstimate e;
          e.total_wires = width * 100;
          return e;
        });
    EXPECT_EQ(est.total_wires, width * 100);
  });
  EXPECT_LE(cache.size(), 2u);  // capacity plus at most the in-flight entry
}

TEST(WorkQueueTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> touched(257);
    for (auto& t : touched) t = 0;
    run_indexed(touched.size(), threads,
                [&](std::size_t i) { ++touched[i]; });
    for (std::size_t i = 0; i < touched.size(); ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "index " << i << " at " << threads
                                      << " threads";
    }
  }
}

}  // namespace
}  // namespace ifsyn::explore
