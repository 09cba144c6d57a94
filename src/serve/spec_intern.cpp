#include "serve/spec_intern.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "spec/parser.hpp"
#include "suite/answering_machine.hpp"
#include "suite/ethernet_coprocessor.hpp"
#include "suite/fig3_example.hpp"
#include "suite/flc.hpp"

namespace ifsyn::serve {

namespace {

/// A compiled-in case study and the defaults it is defined with.
struct BuiltinSpec {
  spec::System (*make)();
  SpecDefaults defaults;
};

/// The builtin table: `name` is "flc", "am", "ethernet" or "fig3" (a
/// target's "builtin:" prefix already stripped).
Result<BuiltinSpec> find_builtin(const std::string& name) {
  if (name == "flc") {
    return BuiltinSpec{
        &suite::make_flc_kernel,
        {false,
         {{"EVAL_R3", suite::FlcCalibration::kEvalR3ComputeCycles},
          {"CONV_R2", suite::FlcCalibration::kConvR2ComputeCycles}}}};
  }
  if (name == "am") {
    // Concurrent masters share AMBUS.
    return BuiltinSpec{&suite::make_answering_machine, {true, {}}};
  }
  if (name == "ethernet") {
    return BuiltinSpec{&suite::make_ethernet_coprocessor, {true, {}}};
  }
  if (name == "fig3") {
    // Fig. 3 runs two concurrent masters; equivalence co-simulation
    // needs the arbitrated bus model (same default the spec file's
    // header comment prescribes for the CLI).
    return BuiltinSpec{[] { return suite::make_fig3_system(); },
                       {/*arbitrate=*/true, {}}};
  }
  return invalid_argument("unknown builtin '" + name +
                          "' (flc, am, ethernet, fig3)");
}

}  // namespace

Result<InternedSpec> SpecInterner::intern_target(const std::string& target) {
  if (target.rfind("builtin:", 0) == 0) {
    const std::string name = target.substr(8);
    Result<BuiltinSpec> builtin = find_builtin(name);
    if (!builtin.is_ok()) return builtin.status();
    // Builtins are compiled in: their content is fixed for the process,
    // so a versioned sentinel is an honest content hash.
    const std::string hash = content_hash("builtin:" + name + "|v1");
    return cache_.get_or_compute(hash, [&]() -> Result<InternedSpec> {
      return InternedSpec{
          hash, std::make_shared<const spec::System>(builtin->make()),
          builtin->defaults};
    });
  }

  std::ifstream in(target, std::ios::binary);
  if (!in) {
    return not_found("cannot read spec file " + target +
                     " (relative paths resolve against the working "
                     "directory)");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<InternedSpec> interned = intern_source(buffer.str());
  if (!interned.is_ok()) {
    // Parse errors carry line:column; prefix the file so a batch of many
    // specs yields actionable diagnostics.
    return Status(interned.status().code(),
                  target + ": " + interned.status().message());
  }
  return interned;
}

Result<InternedSpec> SpecInterner::intern_source(const std::string& source) {
  const std::string hash = content_hash(source);
  return cache_.get_or_compute(hash, [&]() -> Result<InternedSpec> {
    Result<spec::System> parsed = spec::parse_system(source);
    if (!parsed.is_ok()) return parsed.status();
    return InternedSpec{
        hash, std::make_shared<const spec::System>(std::move(parsed).value()),
        {}};
  });
}

}  // namespace ifsyn::serve
