// ifsyn/sim/vcd.hpp
//
// Value Change Dump (IEEE 1364 VCD) export of a kernel trace, so the
// generated protocols' waveforms -- the START/DONE handshakes, ID
// selects, DATA words of Fig. 4 -- can be inspected in GTKWave or any
// other waveform viewer.
//
// Delta cycles collapse onto their simulation instant (VCD has a single
// time axis); within one instant the last committed value wins, matching
// what a VHDL simulator's waveform view shows.
#pragma once

#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/status.hpp"

namespace ifsyn::sim {

/// Render a recorded trace (Kernel::trace(), requires enable_trace(true)
/// before the run) as VCD text; time-0 values are the kernel's declared
/// initial values (pass the kernel post-run). The timescale is 1ns (one
/// kernel cycle = one unit) and every signal sits in one module scope
/// named "ifsyn".
std::string trace_to_vcd(const Kernel& kernel);

/// Write the VCD straight to a file.
Status write_vcd(const Kernel& kernel, const std::string& path);

}  // namespace ifsyn::sim
