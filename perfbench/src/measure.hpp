// perfbench/src/measure.hpp
//
// Measurement primitives shared by the workloads and the traced replay:
// clocks, process CPU and peak RSS from getrusage, exact percentiles, the
// tail-percentile rule, the effective-parallelism probe and the counting
// operator new.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/quantiles.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Peak resident set size of the process so far, MiB.
double peak_rss_mib();

using ifsyn::obs::percentile;  // exact nearest-rank; 0 for no samples
double median(std::vector<double> values);

/// The highest percentile that still has at least ten samples beyond it,
/// over `n` samples: p = 1 - 10/n, rounded down to 0.1 % and never below
/// the median. Ten samples or fewer: their maximum.
struct TailPoint {
  double value = 0;
  double percentile = 0;  ///< in percent, e.g. 99.5
  std::size_t samples = 0;
};
TailPoint tail_of(const std::vector<double>& values);

/// User + system CPU time of the whole process so far, seconds.
double process_cpu_seconds();

/// Process CPU time per successful operation, taken over consecutive
/// chunks of `chunk` operations: a burst of host contention inflates the
/// chunks it overlaps, not the median over chunks. Thread-safe.
class CpuPerOp {
 public:
  explicit CpuPerOp(std::size_t chunk);
  /// Call after every successful operation.
  void done();
  /// Runs `work` and leaves the process CPU time it takes out of every
  /// chunk. Call only while no measured operation is in flight.
  template <class Work>
  void exclude(Work&& work) {
    const double before = process_cpu_seconds();
    work();
    const double spent = process_cpu_seconds() - before;
    std::lock_guard<std::mutex> lock(mu_);
    excluded_ += spent;
  }
  /// Median over full chunks of CPU milliseconds per operation; the CPU
  /// time of a trailing partial chunk is left out. 0 without a full chunk.
  double median_ms() const;

 private:
  const std::size_t chunk_;
  std::atomic<std::size_t> count_{0};
  mutable std::mutex mu_;
  std::vector<double> marks_;  // guarded by mu_; process CPU s per chunk end
  double excluded_ = 0;        // guarded by mu_; CPU s left out so far
};

/// Runs two threads that spin for `window_ms` of wall time and returns
/// their summed thread CPU time divided by the window: 2.0 on an idle box
/// with two free cores, lower when the host is starved.
double effective_parallelism(double window_ms = 50);

/// Allocation calls made on the calling thread so far, counted by the
/// benchmark binary's replacement operator new.
std::uint64_t thread_alloc_calls();

}  // namespace perfbench
