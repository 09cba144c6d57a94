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

std::uint64_t fnv1a(std::uint64_t seed, std::string_view text) {
  std::uint64_t h = seed;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

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

std::string content_hash(std::string_view text) {
  return hex64(fnv1a(14695981039346656037ull, text)) +
         hex64(fnv1a(0x9e3779b97f4a7c15ull, text)) + "-" +
         std::to_string(text.size());
}

SpecInterner::SpecInterner(std::size_t capacity, obs::Counter* hits,
                           obs::Counter* misses, obs::Counter* evictions)
    : capacity_(capacity),
      hits_(hits ? hits : &own_hits_),
      misses_(misses ? misses : &own_misses_),
      evictions_(evictions ? evictions : &own_evictions_) {}

Result<InternedSpec> SpecInterner::lookup(const std::string& hash,
                                          bool* found) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(hash);
  if (it == map_.end()) {
    *found = false;
    misses_->add(1);
    return invalid_argument("miss");  // caller ignores; *found is false
  }
  *found = true;
  hits_->add(1);
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.spec;
}

InternedSpec SpecInterner::insert_locked(InternedSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(spec.hash);
  if (it != map_.end()) {
    // A racing intern of the same content won; its system is identical.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.spec;
  }
  lru_.push_front(spec.hash);
  Entry entry{spec, lru_.begin()};
  map_.emplace(spec.hash, std::move(entry));
  while (capacity_ > 0 && map_.size() > capacity_ && lru_.size() > 1) {
    map_.erase(lru_.back());
    lru_.pop_back();
    evictions_->add(1);
  }
  return spec;
}

Result<InternedSpec> SpecInterner::intern_target(const std::string& target) {
  if (target.rfind("builtin:", 0) == 0) {
    const std::string name = target.substr(8);
    Result<BuiltinSpec> builtin = find_builtin(name);
    if (!builtin.is_ok()) return builtin.status();
    // Builtins are compiled in: their content is fixed for the process,
    // so a versioned sentinel is an honest content hash.
    const std::string hash = content_hash("builtin:" + name + "|v1");
    bool found = false;
    Result<InternedSpec> cached = lookup(hash, &found);
    if (found) return cached;
    InternedSpec spec;
    spec.hash = hash;
    spec.system =
        std::make_shared<const spec::System>(builtin->make());
    spec.defaults = builtin->defaults;
    return insert_locked(std::move(spec));
  }

  std::ifstream in(target, std::ios::binary);
  if (!in) return not_found("cannot read spec file " + target);
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
  bool found = false;
  Result<InternedSpec> cached = lookup(hash, &found);
  if (found) return cached;

  Result<spec::System> parsed = spec::parse_system(source);
  if (!parsed.is_ok()) return parsed.status();
  InternedSpec spec;
  spec.hash = hash;
  spec.system =
      std::make_shared<const spec::System>(std::move(parsed).value());
  return insert_locked(std::move(spec));
}

std::size_t SpecInterner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace ifsyn::serve
