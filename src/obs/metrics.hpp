// ifsyn/obs/metrics.hpp
//
// Always-on metrics for the simulation kernel, the synthesis pipeline and
// the exploration engine: named counters, gauges and fixed-bucket
// histograms collected in a MetricsRegistry and serialized to JSON.
//
// Determinism contract
// --------------------
// Every metric declares a Determinism class at registration:
//
//   - kDeterministic: the value is a pure function of the input system and
//     options — typically derived from *simulated* time or from counts of
//     work items. Deterministic values are byte-identical across explorer
//     thread counts, like the engine's reports (the integration test
//     asserts this at 1/2/4/8 threads). Instrumented code may update them
//     from several threads because every update is an order-independent
//     accumulation (sum, bucket count) over a thread-count-invariant set
//     of events.
//   - kWallClock: the value depends on the host clock or on scheduling
//     (phase durations, per-worker busy time) and legitimately varies run
//     to run.
//
// Snapshots keep the two classes apart so reports can embed the
// deterministic section verbatim without breaking their own byte-identity
// guarantee.
//
// Cost: counter/gauge updates are one relaxed atomic RMW; histogram
// observation is a branchless-ish bucket search plus three RMWs. The sim
// hot path uses none of them: the kernel and the bytecode VM count in
// plain per-run integers (and HistogramBatch) and flush once at the end of
// each run (see sim/kernel.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace ifsyn::obs {

enum class Determinism {
  kDeterministic,  ///< pure function of inputs; identical across threads
  kWallClock,      ///< host-time or schedule dependent
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotone counter. All operations are relaxed atomics: totals are exact,
/// ordering between distinct counters is not promised.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed value (queue depths, configuration echoes).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over unsigned integer observations (simulated
/// cycles, microseconds). Bucket i counts observations <= bounds[i]; one
/// overflow bucket counts the rest.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class HistogramBatch;
  /// Index of the bucket `value` falls in (bounds_.size() = overflow).
  std::size_t bucket_of(std::uint64_t value) const;

  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Plain-integer staging buffer for one Histogram: observe() touches no
/// atomics, flush() adds the batch to the target in one pass and empties
/// it. For hot paths that observe many values per run and publish once
/// (the kernel's bus hold/wait histograms).
class HistogramBatch {
 public:
  /// Stage observations for `target`; null stages nothing.
  void reset(Histogram* target);
  void observe(std::uint64_t value) {
    if (target_ == nullptr) return;
    // Sized on first use: most runs observe nothing.
    if (counts_.empty()) counts_.resize(target_->bounds_.size() + 1);
    ++counts_[target_->bucket_of(value)];
    ++count_;
    sum_ += value;
  }
  void flush();

 private:
  Histogram* target_ = nullptr;
  std::vector<std::uint64_t> counts_;  ///< empty, or one per bucket
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Exponential bucket bounds 1, 2, 4, ... up to `max` (inclusive) — the
/// default shape for cycle- and latency-valued histograms.
std::vector<std::uint64_t> exponential_bounds(std::uint64_t max);

/// Point-in-time copy of one registry, ordered by metric name.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, overflow last
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Sketch quantile (q in [0, 1]): the upper bound of the bucket
    /// holding the ceil(q * count)-th observation. With
    /// exponential_bounds() buckets the estimate e of a true value v
    /// obeys v <= e < 2v (see obs/quantiles.hpp). Observations in the
    /// overflow bucket estimate as 2 * bounds.back(); an empty histogram
    /// yields 0.
    double quantile(double q) const;
  };
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    Determinism determinism = Determinism::kDeterministic;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    std::optional<HistogramData> histogram;
  };

  std::vector<Entry> entries;  ///< sorted by name

  const Entry* find(const std::string& name) const;

  /// {"deterministic": {...}, "wall_clock": {...}} — see metrics_json.
  std::string to_json() const;
  /// Only the deterministic object — byte-identical across thread counts
  /// for the same inputs, so safe to embed in deterministic reports and to
  /// compare verbatim in tests.
  std::string deterministic_json() const;

  /// Markdown table of the deterministic entries (same byte-identity
  /// property), for the "Metrics" section of the synthesis/exploration
  /// reports. Histograms render as count/sum/max-bucket. Empty snapshot →
  /// empty string.
  std::string deterministic_markdown() const;

  /// Prometheus-style text exposition of every entry (both determinism
  /// classes — this is a service-monitoring surface, not report
  /// material). Names are prefixed with "ifsyn_" and mangled to
  /// [a-zA-Z0-9_]; histograms render as cumulative _bucket{le=...}
  /// series plus _sum and _count, counters get a _total suffix.
  /// Non-empty histograms additionally export a companion
  /// <name>_summary series with {quantile="0.5"/"0.95"/"0.99"} sketch
  /// estimates (see HistogramData::quantile). Output order follows
  /// `entries` (sorted by name), so the snapshot of a given state
  /// always serializes identically.
  std::string to_prometheus_text() const;
};

/// Thread-safe named-metric registry. Lookup by name registers on first
/// use and returns a stable reference afterwards; handles stay valid for
/// the registry's lifetime, so hot paths resolve names once and keep the
/// pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registering an existing name returns the existing metric; the kind
  /// must match (program error otherwise). The determinism class of the
  /// first registration wins.
  Counter& counter(const std::string& name,
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(const std::string& name,
               Determinism det = Determinism::kDeterministic);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds,
                       Determinism det = Determinism::kDeterministic);

  MetricsSnapshot snapshot() const;
  std::size_t size() const;

 private:
  struct Metric {
    MetricKind kind;
    Determinism determinism;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;  // sorted => sorted snapshots
};

}  // namespace ifsyn::obs
