#include "spec_gen.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace perfbench {
namespace {

using ifsyn::spec::ProtocolKind;

/// splitmix64, as in the fuzz harness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                     hi - lo + 1));
  }
  bool chance(int percent) { return range(1, 100) <= percent; }

 private:
  std::uint64_t state_;
};

struct OwnedVariable {
  std::string name;
  int width = 1;
  int elements = 0;  // 0 = scalar
  bool written = false;
};

// Loop bounds stay short so simulation remains a minority of a request's
// work: the workload is meant to weigh parse, bus and protocol generation,
// the check and compilation.
constexpr int kMaxTrip = 6;

// Most cycles one transferred word takes under any drawn protocol at the
// request defaults (full handshake 2, half 1, fixed delay 2).
constexpr long long kMaxCyclesPerWord = 2;

class ProcessWriter {
 public:
  ProcessWriter(Rng& rng, std::vector<OwnedVariable>& vars,
                std::ostringstream& os)
      : rng_(rng), vars_(vars), os_(os) {}

  /// Remote accesses the process makes, counting every loop trip and
  /// both arms of every branch: at least the estimator's access count.
  long long transfers() const { return transfers_; }

  void write_variable(OwnedVariable& v, int indent) {
    if (v.elements > 0) {
      const std::string i = loop_var();
      const int upper = rng_.range(0, std::min(v.elements - 1, kMaxTrip));
      transfers_ += trips_ * (upper + 1);
      line(indent) << "for " << i << " in 0 .. " << upper << " {\n";
      line(indent + 1) << v.name << "(" << i << ") := (ACC + " << i << " * "
                       << rng_.range(1, 9) << ") % " << modulus(v) << ";\n";
      line(indent) << "}\n";
    } else {
      line(indent) << v.name << " := (ACC + " << rng_.range(0, 99) << ") % "
                   << modulus(v) << ";\n";
      transfers_ += trips_;
    }
    v.written = true;
  }

  void statement(int indent, int depth) {
    switch (rng_.range(0, 5)) {
      case 0:  // local compute
        line(indent) << "ACC := (ACC * " << rng_.range(2, 5) << " + "
                     << rng_.range(1, 9) << ") % 1000;\n";
        return;
      case 1:  // think time
        line(indent) << "wait " << rng_.range(1, 3) << ";\n";
        return;
      case 2:  // write one of my variables
        write_variable(pick(), indent);
        return;
      case 3: {  // read back one of my written variables
        std::vector<OwnedVariable*> readable;
        for (OwnedVariable& v : vars_) {
          if (v.written) readable.push_back(&v);
        }
        if (readable.empty()) {
          line(indent) << "ACC := ACC + 1;\n";
          return;
        }
        const OwnedVariable& v = *readable[static_cast<std::size_t>(
            rng_.range(0, static_cast<int>(readable.size()) - 1))];
        if (v.elements > 0) {
          const std::string i = loop_var();
          const int upper = rng_.range(0, std::min(v.elements - 1, kMaxTrip));
          line(indent) << "for " << i << " in 0 .. " << upper << " {\n";
          line(indent + 1) << "TMP := " << v.name << "(" << i << ");\n";
          line(indent + 1) << "ACC := (ACC + TMP) % 1000;\n";
          line(indent) << "}\n";
          transfers_ += trips_ * (upper + 1);
        } else {
          line(indent) << "TMP := " << v.name << ";\n";
          line(indent) << "ACC := (ACC + TMP) % 1000;\n";
          transfers_ += trips_;
        }
        return;
      }
      case 4:  // branch on the accumulator
        if (depth >= 2) {
          line(indent) << "ACC := ACC + 3;\n";
          return;
        }
        line(indent) << "if (ACC % 2) = 0 {\n";
        statement(indent + 1, depth + 1);
        line(indent) << "} else {\n";
        statement(indent + 1, depth + 1);
        line(indent) << "}\n";
        return;
      default: {  // short compute loop around a nested statement
        if (depth >= 2) {
          line(indent) << "wait 1;\n";
          return;
        }
        const std::string i = loop_var();
        const int upper = rng_.range(1, 2);
        line(indent) << "for " << i << " in 0 .. " << upper << " {\n";
        const long long outer = trips_;
        trips_ *= upper + 1;
        statement(indent + 1, depth + 1);
        trips_ = outer;
        line(indent) << "}\n";
        return;
      }
    }
  }

 private:
  std::ostream& line(int indent) {
    for (int i = 0; i < indent; ++i) os_ << "  ";
    return os_;
  }
  std::string loop_var() { return "i" + std::to_string(loops_++); }
  OwnedVariable& pick() {
    return vars_[static_cast<std::size_t>(
        rng_.range(0, static_cast<int>(vars_.size()) - 1))];
  }
  /// Keeps written values inside the variable's width, so a value read
  /// back equals the value written.
  static long long modulus(const OwnedVariable& v) {
    return v.width >= 10 ? 1000 : (1ll << v.width);
  }

  Rng& rng_;
  std::vector<OwnedVariable>& vars_;
  std::ostringstream& os_;
  int loops_ = 0;
  long long trips_ = 1;  ///< iterations of the enclosing loops
  long long transfers_ = 0;
};

}  // namespace

const char* protocol_wire_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFullHandshake: return "full";
    case ProtocolKind::kHalfHandshake: return "half";
    case ProtocolKind::kFixedDelay: return "fixed";
    case ProtocolKind::kHardwiredPort: return "hardwired";
  }
  return "?";
}

GeneratedSpec generate_spec(std::uint64_t seed, std::uint64_t index,
                            bool fit_one_bus) {
  Rng rng(seed * 0x100000001b3ull + index * 0x9e3779b97f4a7c15ull + 1);
  GeneratedSpec out;
  out.processes = rng.range(2, 6);
  out.memory_modules = rng.range(1, 3);
  out.concurrent_masters = rng.chance(25);
  const int protocol = rng.range(0, 2);
  out.protocol = protocol == 0   ? ProtocolKind::kFullHandshake
                 : protocol == 1 ? ProtocolKind::kHalfHandshake
                                 : ProtocolKind::kFixedDelay;

  static constexpr int kArraySizes[] = {4, 8, 16, 32, 64, 128};
  std::vector<std::vector<OwnedVariable>> owned(
      static_cast<std::size_t>(out.processes));
  std::vector<std::vector<std::string>> module_vars(
      static_cast<std::size_t>(out.memory_modules));
  for (int p = 0; p < out.processes; ++p) {
    const int count = rng.range(1, 2);
    for (int v = 0; v < count; ++v) {
      OwnedVariable ov;
      ov.name = "V" + std::to_string(p) + "_" + std::to_string(v);
      ov.width = rng.range(1, 64);
      if (rng.chance(50)) {
        ov.elements = kArraySizes[rng.range(0, 5)];
        int address_bits = 0;
        while ((1 << address_bits) < ov.elements) ++address_bits;
        out.largest_array = std::max(out.largest_array, ov.elements);
        out.largest_message_bits =
            std::max(out.largest_message_bits, ov.width + address_bits);
      } else {
        out.largest_message_bits = std::max(out.largest_message_bits, ov.width);
      }
      module_vars[static_cast<std::size_t>(
                      rng.range(0, out.memory_modules - 1))]
          .push_back(ov.name);
      owned[static_cast<std::size_t>(p)].push_back(std::move(ov));
      ++out.variables;
    }
  }

  std::ostringstream os;
  os << "-- perfbench synth_cold spec: seed " << seed << ", index " << index
     << "\n";
  os << "system gen_" << seed << "_" << index << ";\n\n";
  for (const auto& vars : owned) {
    for (const OwnedVariable& v : vars) {
      os << "variable " << v.name << " : ";
      if (v.elements > 0) os << "array[" << v.elements << "] of ";
      os << "bits(" << v.width << ");\n";
    }
  }
  for (int p = 1; p < out.processes; ++p) {
    os << "signal T" << p << " { _ : 1; }\n";
  }

  for (int p = 0; p < out.processes; ++p) {
    std::vector<OwnedVariable>& vars = owned[static_cast<std::size_t>(p)];
    os << "\nprocess P" << p << " {\n";
    os << "  variable ACC : int(32) = " << rng.range(0, 9) << ";\n";
    os << "  variable TMP : int(32);\n";
    const bool waits = p > 0 && !(out.concurrent_masters && p == 1);
    if (waits) os << "  wait until T" << p << " = 1;\n";
    ProcessWriter writer(rng, vars, os);
    writer.write_variable(vars.front(), 1);
    const int statements = rng.range(3, 8);
    for (int s = 0; s < statements; ++s) writer.statement(1, 0);
    // Eq. 1 on one bus at width W (the widest message, one word each):
    // process p's channels carry at most W * A / (C + c * A) bits per
    // cycle, for A transfers of c cycles each and C compute cycles. With
    // C >= (P - 1) * c * A that is at most W / (c * P), so the P processes
    // together stay within the bus rate W / c.
    const long long think =
        (out.processes - 1) * kMaxCyclesPerWord * writer.transfers();
    if (fit_one_bus) os << "  wait " << think << ";\n";
    if (p + 1 < out.processes) os << "  T" << p + 1 << " <= 1;\n";
    os << "}\n";
  }

  os << "\nmodule CPU {";
  for (int p = 0; p < out.processes; ++p) os << " process P" << p << ";";
  os << " }\n";
  int used_modules = 0;
  for (int m = 0; m < out.memory_modules; ++m) {
    const auto& vars = module_vars[static_cast<std::size_t>(m)];
    if (vars.empty()) continue;  // a module with no variables is not emitted
    ++used_modules;
    os << "module MEM" << m << " {";
    for (const std::string& name : vars) os << " variable " << name << ";";
    os << " }\n";
  }
  os << "\nbus B { channels all; }\n";
  out.memory_modules = used_modules;
  out.text = os.str();
  return out;
}

}  // namespace perfbench
