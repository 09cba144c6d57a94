// Regression: the committed signal trace -- and the VCD rendered from it
// -- must be byte-identical across every (engine, optimizer) pairing.
// The bytecode optimizer's bulk-transfer superinstructions (kBulkSend /
// kBulkRecv) collapse whole word loops into single ops; a bug there
// would show up as a reordered or re-timed commit, so the system under
// test is deliberately transfer-heavy: wide array elements squeezed
// through a narrow bus, giving many words per message on both the send
// and receive paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "protocol/protocol_generator.hpp"
#include "scoped_env.hpp"
#include "sim/interpreter.hpp"
#include "sim/vcd.hpp"
#include "spec/system.hpp"

namespace ifsyn {
namespace {

using namespace spec;

/// One process streaming a 16 x 24-bit array out and back over a 5-bit
/// bus: every element transfer is several DATA words in each direction.
System make_transfer_heavy_system() {
  System s("bulk");
  s.add_variable(Variable("V", Type::array(Type::bits(24), 16)));

  Process p;
  p.name = "P0";
  p.locals.emplace_back("ACC", Type::integer(32), Value::integer(0));
  p.locals.emplace_back("TMP", Type::integer(32));
  p.body.push_back(for_stmt("i", lit(0), lit(15),
                            {assign(lv_idx("V", var("i")),
                                    add(mul(var("i"), lit(257)), lit(9)))}));
  p.body.push_back(for_stmt("i", lit(0), lit(15),
                            {assign("TMP", aref("V", var("i"))),
                             assign("ACC", add(var("ACC"), var("TMP")))}));
  s.add_process(std::move(p));

  partition::ModuleAssignment m1{"M1", {"P0"}, {}};
  partition::ModuleAssignment m2{"M2", {}, {"V"}};
  if (!partition::apply_partition(s, {m1, m2}).is_ok()) abort();
  if (!partition::group_all_channels(s, "TB").is_ok()) abort();

  System refined = s.clone("bulk_refined");
  refined.find_bus("TB")->width = 5;
  protocol::ProtocolGenOptions options;
  options.protocol = ProtocolKind::kFullHandshake;
  options.arbitrate = true;
  protocol::ProtocolGenerator gen(options);
  if (!gen.generate_all(refined).is_ok()) abort();
  return refined;
}

struct Leg {
  const char* name;
  sim::Engine engine;
  const char* opt;
};

TEST(TraceIdentityTest, TraceAndVcdAreByteIdenticalAcrossEnginesAndOpt) {
  const System system = make_transfer_heavy_system();

  const Leg legs[] = {
      {"vm opt=0", sim::Engine::kVm, "0"},
      {"vm opt=1", sim::Engine::kVm, "1"},
      {"ast", sim::Engine::kAst, "1"},
  };

  std::vector<sim::SimulationRun> runs;
  std::vector<std::string> vcds;
  obs::MetricsRegistry opt_registry;  // watches the vm opt=1 leg
  for (const Leg& leg : legs) {
    ScopedEnv opt("IFSYN_SIM_OPT", leg.opt);
    obs::ObsContext obs;
    if (leg.engine == sim::Engine::kVm && leg.opt[0] == '1') {
      obs.metrics = &opt_registry;
    }
    runs.push_back(
        sim::simulate(system, 1'000'000, /*trace=*/true, obs, leg.engine));
    ASSERT_TRUE(runs.back().result.status.is_ok())
        << leg.name << ": " << runs.back().result.status.to_string();
    vcds.push_back(sim::trace_to_vcd(*runs.back().kernel));
  }

  // The workload actually exercised the bulk superinstructions; without
  // this the identity assertions below would vacuously pass on the
  // non-bulk code path.
  const obs::MetricsSnapshot snapshot = opt_registry.snapshot();
  const obs::MetricsSnapshot::Entry* bulk =
      snapshot.find("sim.vm.opt.bulk_ops");
  ASSERT_NE(bulk, nullptr);
  EXPECT_GT(bulk->counter, 0u) << "transfer loops were not bulk-optimized";

  const std::vector<sim::TraceEntry>& reference = runs[0].kernel->trace();
  ASSERT_FALSE(reference.empty());
  for (std::size_t leg = 1; leg < runs.size(); ++leg) {
    SCOPED_TRACE(::testing::Message()
                 << legs[leg].name << " vs " << legs[0].name);
    const std::vector<sim::TraceEntry>& trace = runs[leg].kernel->trace();
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(trace[i].time, reference[i].time) << "entry " << i;
      EXPECT_EQ(trace[i].delta, reference[i].delta) << "entry " << i;
      EXPECT_EQ(trace[i].key.to_string(), reference[i].key.to_string())
          << "entry " << i;
      EXPECT_EQ(trace[i].value.to_hex_string(),
                reference[i].value.to_hex_string())
          << "entry " << i << " (" << trace[i].key.to_string() << ")";
    }
    EXPECT_EQ(vcds[leg], vcds[0]);
  }
}

}  // namespace
}  // namespace ifsyn
