#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <thread>

namespace perfbench {
namespace {

thread_local std::uint64_t t_alloc_calls = 0;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

TailPoint tail_of(const std::vector<double>& values) {
  TailPoint tail;
  tail.samples = values.size();
  if (values.size() <= 10) {
    tail.percentile = 100;
    tail.value = values.empty()
                     ? 0
                     : *std::max_element(values.begin(), values.end());
    return tail;
  }
  // Never below the median, which the rule would give under 20 samples.
  const double n = static_cast<double>(values.size());
  tail.percentile =
      std::max(50.0, std::floor(1000.0 * (1.0 - 10.0 / n)) / 10.0);
  tail.value = percentile(values, tail.percentile / 100.0);
  return tail;
}

CpuPerOp::CpuPerOp(std::size_t chunk)
    : chunk_(chunk), marks_{process_cpu_seconds()} {}

void CpuPerOp::done() {
  if ((count_.fetch_add(1) + 1) % chunk_ != 0) return;
  const double now = process_cpu_seconds();
  std::lock_guard<std::mutex> lock(mu_);
  marks_.push_back(now - excluded_);
}

double CpuPerOp::median_ms() const {
  std::vector<double> marks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    marks = marks_;
  }
  // Two threads closing chunks at once may record out of order.
  std::sort(marks.begin(), marks.end());
  std::vector<double> per_op;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    per_op.push_back(1000.0 * (marks[i] - marks[i - 1]) /
                     static_cast<double>(chunk_));
  }
  return median(per_op);
}

double effective_parallelism(double window_ms) {
  std::atomic<bool> go{false};
  double cpu[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const double cpu0 = thread_cpu_seconds();
      const auto end = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               window_ms));
      volatile std::uint64_t sink = 0;
      while (Clock::now() < end) {
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<unsigned>(i);
      }
      cpu[t] = thread_cpu_seconds() - cpu0;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return (cpu[0] + cpu[1]) / (window_ms / 1000.0);
}

std::uint64_t thread_alloc_calls() { return t_alloc_calls; }

}  // namespace perfbench

// Counting allocator: one thread-local increment per call, so untraced
// runs pay no shared-counter traffic. Sized and aligned variants all route
// through these two.
void* operator new(std::size_t size) {
  ++perfbench::t_alloc_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  ++perfbench::t_alloc_calls;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
