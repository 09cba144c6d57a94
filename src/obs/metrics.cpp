#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace ifsyn::obs {

// ---- Histogram -----------------------------------------------------------

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  IFSYN_ASSERT_MSG(!bounds_.empty(), "histogram needs at least one bound");
  IFSYN_ASSERT_MSG(
      std::is_sorted(bounds_.begin(), bounds_.end()) &&
          std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
      "histogram bounds must be strictly increasing");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

std::size_t Histogram::bucket_of(std::uint64_t value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());  // size() → overflow
}

void Histogram::observe(std::uint64_t value) {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

// ---- HistogramBatch ------------------------------------------------------

void HistogramBatch::reset(Histogram* target) {
  target_ = target;
  counts_.clear();
  count_ = 0;
  sum_ = 0;
}

void HistogramBatch::flush() {
  if (target_ == nullptr || count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    target_->buckets_[i].fetch_add(counts_[i], std::memory_order_relaxed);
    counts_[i] = 0;
  }
  target_->count_.fetch_add(count_, std::memory_order_relaxed);
  target_->sum_.fetch_add(sum_, std::memory_order_relaxed);
  count_ = 0;
  sum_ = 0;
}

std::vector<std::uint64_t> exponential_bounds(std::uint64_t max) {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= max; b *= 2) {
    bounds.push_back(b);
    if (b > max / 2) break;  // avoid overflow on the doubling
  }
  if (bounds.empty()) bounds.push_back(1);
  return bounds;
}

// ---- MetricsRegistry -----------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name, Determinism det) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kCounter, det, std::make_unique<Counter>(), nullptr,
             nullptr};
    it = metrics_.emplace(name, std::move(m)).first;
  }
  IFSYN_ASSERT_MSG(it->second.kind == MetricKind::kCounter,
                   "metric " << name << " is not a counter");
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Determinism det) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kGauge, det, nullptr, std::make_unique<Gauge>(),
             nullptr};
    it = metrics_.emplace(name, std::move(m)).first;
  }
  IFSYN_ASSERT_MSG(it->second.kind == MetricKind::kGauge,
                   "metric " << name << " is not a gauge");
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds,
                                      Determinism det) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kHistogram, det, nullptr, nullptr,
             std::make_unique<Histogram>(std::move(bounds))};
    it = metrics_.emplace(name, std::move(m)).first;
  }
  IFSYN_ASSERT_MSG(it->second.kind == MetricKind::kHistogram,
                   "metric " << name << " is not a histogram");
  return *it->second.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    MetricsSnapshot::Entry entry;
    entry.name = name;
    entry.kind = metric.kind;
    entry.determinism = metric.determinism;
    switch (metric.kind) {
      case MetricKind::kCounter:
        entry.counter = metric.counter->value();
        break;
      case MetricKind::kGauge:
        entry.gauge = metric.gauge->value();
        break;
      case MetricKind::kHistogram: {
        MetricsSnapshot::HistogramData data;
        data.bounds = metric.histogram->bounds();
        data.counts = metric.histogram->bucket_counts();
        data.count = metric.histogram->count();
        data.sum = metric.histogram->sum();
        entry.histogram = std::move(data);
        break;
      }
    }
    snap.entries.push_back(std::move(entry));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

// ---- snapshot serialization ----------------------------------------------

namespace {

void render_entry(std::ostringstream& os, const MetricsSnapshot::Entry& e) {
  os << "    " << json_quote(e.name) << ": ";
  switch (e.kind) {
    case MetricKind::kCounter:
      os << e.counter;
      return;
    case MetricKind::kGauge:
      os << e.gauge;
      return;
    case MetricKind::kHistogram: {
      const MetricsSnapshot::HistogramData& h = *e.histogram;
      os << "{\"count\": " << h.count << ", \"sum\": " << h.sum
         << ", \"bounds\": [";
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        os << (i ? ", " : "") << h.bounds[i];
      }
      os << "], \"counts\": [";
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        os << (i ? ", " : "") << h.counts[i];
      }
      os << "]}";
      return;
    }
  }
}

void render_section(std::ostringstream& os, const MetricsSnapshot& snap,
                    Determinism det) {
  bool first = true;
  for (const MetricsSnapshot::Entry& e : snap.entries) {
    if (e.determinism != det) continue;
    if (!first) os << ",\n";
    first = false;
    render_entry(os, e);
  }
  if (!first) os << "\n";
}

}  // namespace

double MetricsSnapshot::HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             q * static_cast<double>(count) + 0.9999999));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      if (i < bounds.size()) return static_cast<double>(bounds[i]);
      // Overflow bucket: no upper bound recorded; report one octave past
      // the last finite bound, keeping the factor-of-2 envelope for
      // observations that only just overflowed.
      return bounds.empty() ? 0.0 : 2.0 * static_cast<double>(bounds.back());
    }
  }
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"deterministic\": {\n";
  render_section(os, *this, Determinism::kDeterministic);
  os << "  },\n  \"wall_clock\": {\n";
  render_section(os, *this, Determinism::kWallClock);
  os << "  }\n}\n";
  return os.str();
}

std::string MetricsSnapshot::deterministic_json() const {
  std::ostringstream os;
  os << "{\n";
  render_section(os, *this, Determinism::kDeterministic);
  os << "}\n";
  return os.str();
}

std::string MetricsSnapshot::deterministic_markdown() const {
  std::ostringstream os;
  bool any = false;
  for (const Entry& e : entries) {
    if (e.determinism != Determinism::kDeterministic) continue;
    if (!any) {
      os << "| metric | value |\n|---|---|\n";
      any = true;
    }
    os << "| " << e.name << " | ";
    switch (e.kind) {
      case MetricKind::kCounter:
        os << e.counter;
        break;
      case MetricKind::kGauge:
        os << e.gauge;
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = *e.histogram;
        os << "count " << h.count << ", sum " << h.sum;
        // The highest non-empty bucket bounds the max observation.
        for (std::size_t i = h.counts.size(); i-- > 0;) {
          if (h.counts[i] == 0) continue;
          if (i < h.bounds.size()) {
            os << ", max bucket <= " << h.bounds[i];
          } else if (!h.bounds.empty()) {
            os << ", max bucket > " << h.bounds.back();
          }
          break;
        }
        break;
      }
    }
    os << " |\n";
  }
  return os.str();
}

namespace {

/// "serve.queue.depth" -> "ifsyn_serve_queue_depth".
std::string prometheus_name(const std::string& name) {
  std::string out = "ifsyn_";
  for (char c : name) {
    const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    out += word ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus_text() const {
  std::ostringstream os;
  for (const Entry& e : entries) {
    const std::string name = prometheus_name(e.name);
    switch (e.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << name << "_total counter\n"
           << name << "_total " << e.counter << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << e.gauge << "\n";
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = *e.histogram;
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += i < h.counts.size() ? h.counts[i] : 0;
          os << name << "_bucket{le=\"" << h.bounds[i] << "\"} "
             << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
           << name << "_sum " << h.sum << "\n"
           << name << "_count " << h.count << "\n";
        if (h.count > 0) {
          os << "# TYPE " << name << "_summary summary\n";
          for (const double q : {0.5, 0.95, 0.99}) {
            std::ostringstream label;
            label << q;
            os << name << "_summary{quantile=\"" << label.str() << "\"} "
               << static_cast<std::uint64_t>(h.quantile(q)) << "\n";
          }
        }
        break;
      }
    }
  }
  return os.str();
}

}  // namespace ifsyn::obs
