// ifsyn/explore/estimation_cache.hpp
//
// Memoization of per-group estimation results, keyed by (scope, group
// signature, width, protocol, fixed delay). Grouping plans overlap
// heavily — the same channel set shows up in "as-grouped" and
// "single-bus", and every plan revisits every width — so the exploration
// engine would otherwise recompute identical Eq. 1 evaluations many times
// over. The store itself is obs::MemoCache (compute-once, optional LRU
// bound, obs counters); this header supplies the key and the value.
//
// Two deployment shapes:
//
//   - Per-run (the explorer's default): unbounded, scope left empty, the
//     cache lives for one Explorer::run. Every key misses exactly once
//     whatever the thread count, so hit/miss counts can appear in reports
//     without breaking the engine's byte-identical-output guarantee.
//   - Process-wide shared store (src/serve): one cache outlives many
//     requests, keys carry a `scope` (the interned spec's content hash
//     plus an option fingerprint) so identical group signatures from
//     different specs never collide, and a capacity bounds memory with
//     LRU eviction. Shared hit/miss counts depend on request
//     interleaving, so they are service metrics, not report material.
#pragma once

#include <functional>
#include <string>

#include "obs/memo_cache.hpp"
#include "spec/system.hpp"

namespace ifsyn::explore {

struct EstimationKey {
  /// Distinguishes identical group signatures from different systems in a
  /// shared store (spec content hash + option fingerprint). Empty for
  /// per-run caches, where every lookup concerns the same system.
  std::string scope;
  std::string group_signature;  ///< GroupingPlan::group_signature
  int width = 0;
  spec::ProtocolKind protocol = spec::ProtocolKind::kFullHandshake;
  int fixed_delay_cycles = 2;

  friend bool operator==(const EstimationKey&,
                         const EstimationKey&) = default;
};

struct EstimationKeyHash {
  std::size_t operator()(const EstimationKey& key) const {
    std::size_t h = std::hash<std::string>{}(key.group_signature);
    const auto mix = [&h](std::size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(std::hash<std::string>{}(key.scope));
    mix(static_cast<std::size_t>(key.width));
    mix(static_cast<std::size_t>(key.protocol));
    mix(static_cast<std::size_t>(key.fixed_delay_cycles));
    return h;
  }
};

/// What one (group, width, protocol) evaluation yields: the Eq. 1 verdict
/// plus the wire budget and the slowest accessor, everything a DesignPoint
/// aggregates from its groups.
struct GroupEstimate {
  bool feasible = false;
  double bus_rate = 0;           ///< Eq. 2
  double sum_average_rates = 0;  ///< right side of Eq. 1
  int id_bits = 0;
  int control_lines = 0;
  int total_wires = 0;  ///< width + control + id
  /// Worst execution time among the processes accessing this group's
  /// channels (each accessor pays for *all* its channels at this width).
  long long worst_accessor_clocks = 0;
  std::string worst_accessor;
};

/// Constructed as (capacity, hits, misses, evictions); the per-run shape
/// passes capacity 0 (unbounded) and the explorer's registry counters.
using EstimationCache =
    obs::MemoCache<EstimationKey, GroupEstimate, EstimationKeyHash>;

}  // namespace ifsyn::explore
