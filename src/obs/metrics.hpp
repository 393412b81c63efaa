// Unified metrics for every SNIPE component (consoles "monitor" daemons,
// resource managers and migrating tasks — §3, §5 — which presumes the
// system can report on itself).
//
// Three instrument kinds live in a MetricsRegistry:
//   * Counter  — monotonically increasing event count ("srudp.retransmits");
//   * Gauge    — a value that goes up and down ("rm.live_hosts");
//   * Histogram — fixed-bucket distribution with p50/p95/p99 extraction
//     ("srudp.rtt_ms", "rcds.replication_lag_ms").
//
// Components that already keep a per-instance stats struct (SrudpStats,
// RcServerStats, ...) do not double-count: their fields stay the single
// point of increment (as obs::Cell, a thin counter cell) and the instance
// registers *pull sources* into the registry.  At snapshot time the
// registry sums every live source with the same name, so ten SRUDP
// endpoints show up as one "srudp.messages_sent" total.  When an instance
// dies, its final values are folded into a retained total so a snapshot
// after the fact still reports the whole run.
//
// Everything is dependency-free, cheap when disabled (one relaxed atomic
// load), and safe to call from multiple threads (registration takes a
// mutex; increments are lock-free atomics; the simulator itself is
// single-threaded, but tests built with -DSNIPE_SANITIZE=thread exercise
// the concurrent paths).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace snipe::obs {

/// A plain counter cell for per-instance stats structs.  Deliberately a
/// trivial, copyable value type so existing `stats()` accessors keep their
/// exact semantics (comparisons, tuples, streaming) while the registry
/// reads the cell through a registered source.
struct Cell {
  std::uint64_t v = 0;

  constexpr operator std::uint64_t() const { return v; }
  Cell& operator++() {
    ++v;
    return *this;
  }
  Cell& operator+=(std::uint64_t n) {
    v += n;
    return *this;
  }
};

class MetricsRegistry;

/// Monotonic event counter.  Stable address for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<std::uint64_t> v_{0};
  const std::atomic<bool>* enabled_;
};

/// A value that can go up and down (loads, queue depths).
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double delta);
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<double> v_{0};
  const std::atomic<bool>* enabled_;
};

/// The one bucket-quantile routine, shared by Histogram and the fleet's
/// HistogramSketch so a merged sketch reports exactly what one histogram
/// fed the union of the samples would: the rank q*total walked over the
/// buckets, interpolating linearly inside the bucket that holds it.
/// `bucket_at(i)` is the occupancy of bucket i < `buckets`; the bucket past
/// the last bound is the +inf tail and reports its lower edge.  Returns 0
/// when `total` is 0.  Allocation-free: it runs on every scrape.
template <typename BucketAt>
double bucket_quantile(const std::vector<double>& bounds, std::size_t buckets,
                       std::uint64_t total, double q, BucketAt bucket_at) {
  if (total == 0) return 0;
  double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    std::uint64_t in_bucket = bucket_at(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      double lo = i == 0 ? 0 : bounds[i - 1];
      if (i == bounds.size()) return lo;
      double into = (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (bounds[i] - lo) * std::clamp(into, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0 : bounds.back();
}

/// Fixed-bucket histogram.  Bucket upper bounds are set at creation (the
/// default spans 10 µs .. 60 s expressed in milliseconds, wide enough for
/// SRUDP RTTs and RCDS replication lag alike); an implicit +inf bucket
/// catches the tail.  Quantiles interpolate linearly inside the bucket.
class Histogram {
 public:
  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count at or below bounds()[i].
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  static std::vector<double> default_bounds();

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);
  std::vector<double> bounds_;                       ///< ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1 (+inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  const std::atomic<bool>* enabled_;
};

/// RAII registration of one pull source; unregistering folds the source's
/// final value into the registry's retained totals.
class SourceHandle {
 public:
  SourceHandle() = default;
  SourceHandle(SourceHandle&& other) noexcept { *this = std::move(other); }
  SourceHandle& operator=(SourceHandle&& other) noexcept;
  SourceHandle(const SourceHandle&) = delete;
  SourceHandle& operator=(const SourceHandle&) = delete;
  ~SourceHandle() { release(); }

  void release();

 private:
  friend class MetricsRegistry;
  SourceHandle(MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// A bundle of sources owned by one component instance.  Declare it *after*
/// the stats struct it reads so it unregisters first on destruction.
class SourceGroup {
 public:
  void add(MetricsRegistry& registry, std::string name,
           std::function<std::uint64_t()> fn);
  /// Registers against the global registry.
  void add(std::string name, std::function<std::uint64_t()> fn);
  void clear() { handles_.clear(); }

 private:
  std::vector<SourceHandle> handles_;
};

/// One entry of a registry snapshot.
struct MetricValue {
  enum class Kind { counter, gauge, histogram };
  Kind kind = Kind::counter;
  std::string name;
  double value = 0;         ///< counter total or gauge value
  std::uint64_t count = 0;  ///< histogram only
  double sum = 0;           ///< histogram only
  double p50 = 0, p95 = 0, p99 = 0;
};

using Snapshot = std::vector<MetricValue>;

/// Raw bucket view of one histogram — the mergeable form the fleet
/// telemetry exporter ships (obs/fleet.hpp).  `buckets` has
/// bounds.size() + 1 entries, the +inf tail last.
struct HistogramBuckets {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every component reports into.
  static MetricsRegistry& global();

  /// Disabling makes every increment/observe a no-op (the opt-out knob the
  /// benches use to measure instrumentation overhead).  Pull sources are
  /// free either way — they cost nothing until snapshot().
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Named instruments; the same name always returns the same object.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  /// Registers a pull source summed into `name` at snapshot time.
  [[nodiscard]] SourceHandle add_source(std::string name,
                                        std::function<std::uint64_t()> fn);

  /// Zeroes counters, gauges, histograms and retained source totals.  Live
  /// sources are *not* reset (they mirror component stats structs); benches
  /// that want a clean slate should scope component lifetimes accordingly.
  void reset();

  /// Consistent view of every instrument, sorted by name.  Sources and
  /// retained totals merge into counter entries.
  Snapshot snapshot() const;

  /// Every histogram as its raw bucket array, sorted by name (the form a
  /// telemetry beacon carries so collectors can merge exactly).
  std::vector<HistogramBuckets> histogram_buckets() const;

  /// Plain-text scrape format for consoles: one "name value" line per
  /// counter/gauge, one "name count=N sum=S p50=.. p95=.. p99=.." line per
  /// histogram.
  std::string format_text() const;

 private:
  friend class SourceHandle;
  void retire_source(std::uint64_t id);

  struct Source {
    std::string name;
    std::function<std::uint64_t()> fn;
  };

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::uint64_t, Source> sources_;
  std::map<std::string, std::uint64_t> retained_;  ///< totals of dead sources
  std::uint64_t next_source_id_ = 1;
};

}  // namespace snipe::obs
