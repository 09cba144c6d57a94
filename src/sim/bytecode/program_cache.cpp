#include "sim/bytecode/program_cache.hpp"

#include <atomic>

#include "spec/printer.hpp"
#include "util/content_hash.hpp"

namespace ifsyn::sim::bytecode {

namespace {

std::atomic<ProgramCache*> g_process_cache{nullptr};

}  // namespace

std::string system_cache_key(const spec::System& system, OptLevel level) {
  // The printed IR covers variables, signals, channels, buses, procedures
  // and processes — everything compile() lowers. Appended explicitly: two
  // kernel-relevant facts the printer does not render (which buses
  // declare locks — BusId interning order depends on the arbitrated set),
  // the optimization level (a process serving mixed IFSYN_SIM_OPT
  // requests keeps one artifact per level and can never hand an optimized
  // program to a reference run), and a version salt so cached artifacts
  // never survive an ISA change.
  std::string text = spec::print_system(system);
  text += "\n|locks:";
  for (const auto& bus : system.buses()) {
    if (bus->arbitrated) {
      text += ' ';
      text += bus->name;
    }
  }
  text += "|opt:";
  text += std::to_string(static_cast<int>(level));
  text += "|bytecode-v2";
  return content_hash(text);
}

void install_process_cache(ProgramCache* cache) {
  g_process_cache.store(cache, std::memory_order_release);
}

ProgramCache* process_cache() {
  return g_process_cache.load(std::memory_order_acquire);
}

}  // namespace ifsyn::sim::bytecode
