// Tests of the synth_cold spec generator: determinism, parseability and
// the construction shares the workload documents.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "../src/spec_gen.hpp"
#include "bus/bus_generator.hpp"
#include "estimate/performance_estimator.hpp"
#include "spec/analysis.hpp"
#include "spec/parser.hpp"

namespace perfbench {
namespace {

TEST(SpecGen, SameSeedAndIndexYieldSameText) {
  for (std::uint64_t index = 0; index < 50; ++index) {
    EXPECT_EQ(generate_spec(7, index).text, generate_spec(7, index).text);
  }
}

TEST(SpecGen, SeedsAndIndicesYieldDistinctTexts) {
  std::set<std::string> texts;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::uint64_t index = 0; index < 250; ++index) {
      texts.insert(generate_spec(seed, index).text);
    }
  }
  EXPECT_EQ(texts.size(), 1000u);
}

TEST(SpecGen, EverySpecParses) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (std::uint64_t index = 0; index < 400; ++index) {
      const GeneratedSpec gen = generate_spec(seed, index);
      const auto parsed = ifsyn::spec::parse_system(gen.text);
      ASSERT_TRUE(parsed.is_ok())
          << "seed " << seed << " index " << index << ": " << parsed.status()
          << "\n" << gen.text;
      EXPECT_EQ(static_cast<int>(parsed->processes().size()), gen.processes);
      EXPECT_EQ(parsed->buses().size(), 1u);
      EXPECT_FALSE(parsed->channels().empty());
    }
  }
}

// The think time keeps Eq. 1 feasible for every channel on the one bus,
// under every drawn protocol, so bus generation never auto-splits it.
TEST(SpecGen, EveryChannelFitsOneBus) {
  using ifsyn::spec::ProtocolKind;
  for (std::uint64_t index = 0; index < 300; ++index) {
    const GeneratedSpec gen = generate_spec(5, index);
    auto parsed = ifsyn::spec::parse_system(gen.text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status();
    ifsyn::spec::System system = std::move(parsed).value();
    ASSERT_TRUE(ifsyn::spec::annotate_channel_accesses(system).is_ok());
    const ifsyn::estimate::PerformanceEstimator estimator(system);
    const ifsyn::bus::BusGenerator generator(system, estimator);
    for (ProtocolKind kind :
         {ProtocolKind::kFullHandshake, ProtocolKind::kHalfHandshake,
          ProtocolKind::kFixedDelay}) {
      ifsyn::bus::BusGenOptions options;
      options.protocol = kind;
      EXPECT_TRUE(generator.generate(*system.buses().front(), options).is_ok())
          << "index " << index << "\n" << gen.text;
    }
  }
}

// Without the think time the spec is otherwise the same text.
TEST(SpecGen, ThinkTimeIsTheOnlyDifferenceWithoutFitOneBus) {
  for (std::uint64_t index = 0; index < 50; ++index) {
    const GeneratedSpec fit = generate_spec(9, index);
    const GeneratedSpec bare = generate_spec(9, index, /*fit_one_bus=*/false);
    EXPECT_EQ(bare.processes, fit.processes);
    EXPECT_LT(bare.text.size(), fit.text.size());
    std::istringstream fit_lines(fit.text), bare_lines(bare.text);
    std::string fit_line, bare_line;
    while (std::getline(bare_lines, bare_line)) {
      do {
        ASSERT_TRUE(std::getline(fit_lines, fit_line));
      } while (fit_line != bare_line &&
               fit_line.rfind("  wait ", 0) == 0);
      EXPECT_EQ(fit_line, bare_line);
    }
  }
}

TEST(SpecGen, DrawsCoverTheDocumentedRanges) {
  int concurrent = 0;
  std::set<int> processes, modules, protocols;
  int largest_array = 0, largest_message = 0, smallest_message = 1 << 30;
  constexpr int kSpecs = 2000;
  for (std::uint64_t index = 0; index < kSpecs; ++index) {
    const GeneratedSpec gen = generate_spec(11, index);
    concurrent += gen.concurrent_masters ? 1 : 0;
    processes.insert(gen.processes);
    modules.insert(gen.memory_modules);
    protocols.insert(static_cast<int>(gen.protocol));
    largest_array = std::max(largest_array, gen.largest_array);
    largest_message = std::max(largest_message, gen.largest_message_bits);
    smallest_message = std::min(smallest_message, gen.largest_message_bits);
  }
  EXPECT_EQ(processes, (std::set<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(modules, (std::set<int>{1, 2, 3}));
  EXPECT_EQ(protocols.size(), 3u);
  EXPECT_EQ(largest_array, 128);
  EXPECT_GE(largest_message, 64);
  EXPECT_LE(smallest_message, 8);
  // About one spec in four has two concurrently active masters.
  EXPECT_GT(concurrent, kSpecs * 20 / 100);
  EXPECT_LT(concurrent, kSpecs * 30 / 100);
}

}  // namespace
}  // namespace perfbench
