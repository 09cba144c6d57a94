#include "serve/spec_intern.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace ifsyn::serve {
namespace {

const char* kMinimalSpec =
    "system t;\n"
    "variable X : bits(8);\n"
    "process P { wait 1; X := 3; }\n"
    "module A { process P; }\n"
    "module B { variable X; }\n"
    "bus Z { channels all; }\n";

TEST(ContentHashTest, DistinguishesContentAndLength) {
  EXPECT_EQ(content_hash("abc"), content_hash("abc"));
  EXPECT_NE(content_hash("abc"), content_hash("abd"));
  EXPECT_NE(content_hash("abc"), content_hash("abc "));
  // 128-bit hex + "-" + length.
  EXPECT_EQ(content_hash("abc").substr(32), "-3");
}

TEST(SpecInternTest, InternsSourceOncePerContent) {
  SpecInterner interner;
  Result<InternedSpec> a = interner.intern_source(kMinimalSpec);
  Result<InternedSpec> b = interner.intern_source(kMinimalSpec);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_EQ(a->system.get(), b->system.get());  // shared, not re-parsed
  EXPECT_EQ(interner.size(), 1u);
}

TEST(SpecInternTest, RacingInternsParseOnce) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("h");
  obs::Counter& misses = registry.counter("m");
  SpecInterner interner(/*capacity=*/0, &hits, &misses);
  constexpr int kThreads = 8;
  std::vector<Result<InternedSpec>> results(kThreads,
                                            invalid_argument("unset"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = interner.intern_source(kMinimalSpec); });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(misses.value(), 1u);
  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads - 1));
  for (const Result<InternedSpec>& result : results) {
    ASSERT_TRUE(result.is_ok()) << result.status();
    EXPECT_EQ(result->system.get(), results[0]->system.get());
  }
}

TEST(SpecInternTest, ParseErrorsAreCachedByContent) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("h");
  obs::Counter& misses = registry.counter("m");
  SpecInterner interner(/*capacity=*/0, &hits, &misses);
  const char* broken = "system broken;\nprocess P {";
  Result<InternedSpec> first = interner.intern_source(broken);
  Result<InternedSpec> second = interner.intern_source(broken);
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.status(), second.status());
  EXPECT_EQ(misses.value(), 1u);
  EXPECT_EQ(hits.value(), 1u);
}

TEST(SpecInternTest, FileTargetHashesContentAndPrefixesErrors) {
  const std::string path = testing::TempDir() + "/intern_spec_test.ifs";
  {
    std::ofstream out(path);
    out << kMinimalSpec;
  }
  SpecInterner interner;
  Result<InternedSpec> from_file = interner.intern_target(path);
  ASSERT_TRUE(from_file.is_ok()) << from_file.status();
  // Same content inline -> same interned entry.
  Result<InternedSpec> inline_spec = interner.intern_source(kMinimalSpec);
  ASSERT_TRUE(inline_spec.is_ok());
  EXPECT_EQ(from_file->hash, inline_spec->hash);
  EXPECT_EQ(from_file->system.get(), inline_spec->system.get());

  {
    std::ofstream out(path);
    out << "system broken;\nprocess P {";
  }
  Result<InternedSpec> broken = interner.intern_target(path);
  ASSERT_FALSE(broken.is_ok());
  // Diagnostics name the file (satellite: hardened ingestion).
  EXPECT_NE(broken.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(SpecInternTest, MissingFileIsNotFound) {
  SpecInterner interner;
  Result<InternedSpec> missing = interner.intern_target("/no/such/file.ifs");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SpecInternTest, BuiltinsCarryTheirDefaults) {
  SpecInterner interner;
  Result<InternedSpec> flc = interner.intern_target("builtin:flc");
  ASSERT_TRUE(flc.is_ok());
  EXPECT_FALSE(flc->defaults.arbitrate);
  EXPECT_EQ(flc->defaults.compute_cycles_override.size(), 2u);

  Result<InternedSpec> am = interner.intern_target("builtin:am");
  ASSERT_TRUE(am.is_ok());
  EXPECT_TRUE(am->defaults.arbitrate);

  Result<InternedSpec> again = interner.intern_target("builtin:flc");
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->system.get(), flc->system.get());  // cached

  Result<InternedSpec> unknown = interner.intern_target("builtin:nope");
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecInternTest, TinyCapacityEvictsLeastRecentlyUsed) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("h");
  obs::Counter& misses = registry.counter("m");
  obs::Counter& evictions = registry.counter("e");
  SpecInterner interner(/*capacity=*/2, &hits, &misses, &evictions);

  ASSERT_TRUE(interner.intern_target("builtin:fig3").is_ok());
  ASSERT_TRUE(interner.intern_target("builtin:am").is_ok());
  EXPECT_EQ(interner.size(), 2u);
  // Touch fig3 so am is the LRU victim.
  ASSERT_TRUE(interner.intern_target("builtin:fig3").is_ok());
  ASSERT_TRUE(interner.intern_target("builtin:ethernet").is_ok());
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(evictions.value(), 1u);
  // fig3 survived; am was evicted and re-interns as a miss.
  const std::uint64_t misses_before = misses.value();
  ASSERT_TRUE(interner.intern_target("builtin:fig3").is_ok());
  EXPECT_EQ(misses.value(), misses_before);
  ASSERT_TRUE(interner.intern_target("builtin:am").is_ok());
  EXPECT_EQ(misses.value(), misses_before + 1);
}

TEST(SpecInternTest, ParseErrorsKeepLineInformation) {
  SpecInterner interner;
  Result<InternedSpec> bad =
      interner.intern_source("system t;\nprocess P { wait; }\n");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().message();
}

}  // namespace
}  // namespace ifsyn::serve
