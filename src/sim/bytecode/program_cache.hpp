// ifsyn/sim/bytecode/program_cache.hpp
//
// Process-wide, size-bounded, concurrent store of compiled bytecode
// artifacts, so repeated simulations of the same system (the serve front
// end's workload, repeated co-simulations inside one exploration, warm
// batch passes) reuse one CompiledSystem instead of recompiling per run.
//
// Why sharing is sound: a CompiledSystem is self-contained (program.hpp)
// and immutable after compile; all mutable execution state lives in each
// Vm's ExecState. The embedded SignalId/BusId operands are dense ids the
// kernel assigns in declaration order, and declaration order is a pure
// function of the system — so any kernel set up (Interpreter::setup) for
// a system with the same cache key interns identical ids, and a cached
// program executes on it exactly as a fresh compile would. The
// differential test in tests/sim/program_cache_test.cpp holds the two
// paths to identical simulation results.
//
// Keys come from system_cache_key(): util's content_hash over the printed
// IR plus the kernel-relevant facts the printer does not render (bus lock
// declarations). The store is obs::MemoCache: concurrent requests for one
// key block on a single compile, a capacity bounds memory via LRU
// eviction, and hit/miss/eviction counts land on caller-supplied obs
// counters. Evicted artifacts stay alive for as long as running Vms hold
// their shared_ptr; the store merely forgets them.
//
// Nothing consults a cache by default — one-shot CLI runs compile exactly
// as before. A front end opts the whole process in with
// install_process_cache(); Vm::setup then routes compiles through it.
#pragma once

#include <memory>
#include <string>

#include "obs/memo_cache.hpp"
#include "sim/bytecode/program.hpp"
#include "spec/system.hpp"

namespace ifsyn::sim::bytecode {

/// Content hash identifying a system for artifact reuse: everything the
/// bytecode compiler and the kernel-id interning read, plus the
/// optimization level the artifact was (or would be) rewritten at — opt
/// and reference artifacts never collide in a shared store. Two systems
/// with equal keys produce byte-identical CompiledSystems.
std::string system_cache_key(const spec::System& system,
                             OptLevel level = OptLevel::kNone);

/// Constructed as (capacity, hits, misses, evictions); capacity 0 =
/// unbounded. `get_or_compute(key, compile)` takes a callable returning
/// the shared artifact.
using ProgramCache =
    obs::MemoCache<std::string, std::shared_ptr<const CompiledSystem>>;

/// Install `cache` as the process-wide bytecode store consulted by every
/// subsequent Vm::setup (nullptr uninstalls). The caller keeps ownership
/// and must keep the cache alive while installed. Not synchronized with
/// concurrently running setups — install once at front-end startup,
/// before workers spawn.
void install_process_cache(ProgramCache* cache);

/// The installed process-wide cache, or nullptr (the default: every Vm
/// compiles privately, the pre-serve behavior).
ProgramCache* process_cache();

}  // namespace ifsyn::sim::bytecode
