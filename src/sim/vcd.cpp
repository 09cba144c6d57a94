#include "sim/vcd.hpp"

#include <fstream>
#include <map>
#include <sstream>

namespace ifsyn::sim {

namespace {

/// VCD identifier codes: printable ASCII 33..126, multi-character when the
/// signal count exceeds one character's range.
std::string vcd_id(int index) {
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + index % 94));
    index = index / 94 - 1;
  } while (index >= 0);
  return id;
}

void emit_value(std::ostringstream& os, const BitVector& value,
                const std::string& id) {
  if (value.width() == 1) {
    os << (value.bit(0) ? '1' : '0') << id << "\n";
  } else {
    os << "b" << value.to_binary_string() << " " << id << "\n";
  }
}

}  // namespace

std::string trace_to_vcd(const Kernel& kernel) {
  std::ostringstream os;
  os << "$date ifsyn simulation $end\n";
  os << "$version ifsyn protocol-generation trace $end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module ifsyn $end\n";

  const std::vector<FieldKey>& keys = kernel.signal_keys();
  std::map<FieldKey, std::string> ids;
  int index = 0;
  for (const FieldKey& key : keys) {
    const int width = kernel.signal_value(key).width();
    const std::string id = vcd_id(index++);
    ids[key] = id;
    std::string name = key.field.empty() ? key.signal
                                         : key.signal + "." + key.field;
    os << "$var wire " << width << " " << id << " " << name;
    if (width > 1) os << " [" << width - 1 << ":0]";
    os << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Time 0: declared initial values.
  os << "#0\n$dumpvars\n";
  std::ostringstream init;
  for (const FieldKey& key : keys) {
    emit_value(init, kernel.initial_value(key), ids[key]);
  }
  os << init.str() << "$end\n";

  // Changes, collapsing deltas onto their instant (last value wins, which
  // the recorded trace already guarantees per commit; multiple commits in
  // one instant simply re-emit, and viewers keep the last).
  std::uint64_t current_time = 0;
  bool emitted_time = true;  // #0 block is open
  for (const TraceEntry& entry : kernel.trace()) {
    if (entry.time != current_time || !emitted_time) {
      os << "#" << entry.time << "\n";
      current_time = entry.time;
      emitted_time = true;
    }
    emit_value(os, entry.value, ids[entry.key]);
  }
  return os.str();
}

Status write_vcd(const Kernel& kernel, const std::string& path) {
  std::ofstream out(path);
  if (!out) return invalid_argument("cannot write VCD file: " + path);
  out << trace_to_vcd(kernel);
  if (!out.good()) return invalid_argument("error writing VCD file: " + path);
  return Status::ok();
}

}  // namespace ifsyn::sim
