// perfbench/src/spec_gen.hpp
//
// Seeded generator of `.ifs` specification texts for the synth_cold
// workload. Spec `index` of run `seed` is a pure function of the pair, so
// the same seed always yields the same request stream, and the specs of a
// longer run extend those of a shorter one.
//
// Construction follows the fuzz harness's invariants
// (tests/integration/fuzz_equivalence_test.cpp) so the ORIGINAL system is
// deterministic and co-simulation equivalence is well defined:
//   - every remote variable is owned by exactly one process, which is the
//     only process that reads or writes it;
//   - a process reads a variable only after writing it earlier in program
//     order.
//
// Every process owns at least one remote variable and writes it first, so
// every process is a bus master and every spec has channels. All channels
// share one bus `B`. Processes normally run one after another, chained by
// one-bit token signals (process k waits for T<k>, then raises T<k+1>), so
// at most one master drives the bus at a time. About one spec in four
// (`concurrent_masters`) drops the first token wait, so P0 and P1 start
// together and two masters are active on B at once. Such specs need the
// arbitrated bus: without it they come back not_equivalent (ROADMAP open
// item 1), so the workload requests arbitration for them.
//
// With `fit_one_bus`, every process ends with think time sized so that
// its channels use at most 1/P of the bus rate at the widest width (P =
// process count): Eq. 1 then holds for all channels on the one bus `B`,
// and bus generation never has to auto-split the group. An auto-split can
// put a variable's read and write channels on different buses, which
// protocol generation refuses as `unsupported`. Without `fit_one_bus` the
// same spec has no think time, as the defect probe sends it.
#pragma once

#include <cstdint>
#include <string>

#include "spec/system.hpp"

namespace perfbench {

struct GeneratedSpec {
  std::string text;
  int processes = 0;
  int memory_modules = 0;
  int variables = 0;
  int largest_array = 0;        ///< elements; 0 when every variable is scalar
  int largest_message_bits = 0; ///< data bits + address bits
  bool concurrent_masters = false;
  /// Drawn per request; the only request option the workload varies.
  ifsyn::spec::ProtocolKind protocol = ifsyn::spec::ProtocolKind::kFullHandshake;
};

GeneratedSpec generate_spec(std::uint64_t seed, std::uint64_t index,
                            bool fit_one_bus = true);

/// "full" / "half" / "fixed", the request wire spelling.
const char* protocol_wire_name(ifsyn::spec::ProtocolKind kind);

}  // namespace perfbench
