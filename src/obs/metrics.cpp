#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace snipe::obs {

void Gauge::add(double delta) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

std::vector<double> Histogram::default_bounds() {
  // Milliseconds, 0.01 .. 60000, roughly 1-2-5 per decade: covers a Myrinet
  // RTT and a 30 s anti-entropy lag in one instrument.
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1,    2,    5,     10,   20,
          50,   100,  200,  500, 1000, 2000, 5000, 10000, 30000, 60000};
}

Histogram::Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1), enabled_(enabled) {}

void Histogram::observe(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  std::size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  return bucket_quantile(bounds_, buckets_.size(), count(), q, [this](std::size_t i) {
    return buckets_[i].load(std::memory_order_relaxed);
  });
}

SourceHandle& SourceHandle::operator=(SourceHandle&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void SourceHandle::release() {
  if (registry_ != nullptr) registry_->retire_source(id_);
  registry_ = nullptr;
  id_ = 0;
}

void SourceGroup::add(MetricsRegistry& registry, std::string name,
                      std::function<std::uint64_t()> fn) {
  handles_.push_back(registry.add_source(std::move(name), std::move(fn)));
}

void SourceGroup::add(std::string name, std::function<std::uint64_t()> fn) {
  add(MetricsRegistry::global(), std::move(name), std::move(fn));
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // intentionally leaked
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(&enabled_))).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_))).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_bounds();
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(&enabled_, std::move(bounds))))
             .first;
  }
  return *it->second;
}

SourceHandle MetricsRegistry::add_source(std::string name,
                                         std::function<std::uint64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t id = next_source_id_++;
  sources_[id] = Source{std::move(name), std::move(fn)};
  return SourceHandle(this, id);
}

void MetricsRegistry::retire_source(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(id);
  if (it == sources_.end()) return;
  retained_[it->second.name] += it->second.fn();
  sources_.erase(it);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
  }
  retained_.clear();
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, MetricValue> merged;

  auto counter_entry = [&merged](const std::string& name) -> MetricValue& {
    auto [it, inserted] = merged.try_emplace(name);
    if (inserted) {
      it->second.kind = MetricValue::Kind::counter;
      it->second.name = name;
    }
    return it->second;
  };

  for (const auto& [name, c] : counters_)
    counter_entry(name).value += static_cast<double>(c->value());
  for (const auto& [name, total] : retained_)
    counter_entry(name).value += static_cast<double>(total);
  for (const auto& [id, source] : sources_)
    counter_entry(source.name).value += static_cast<double>(source.fn());

  for (const auto& [name, g] : gauges_) {
    MetricValue v;
    v.kind = MetricValue::Kind::gauge;
    v.name = name;
    v.value = g->value();
    merged[name] = v;
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue v;
    v.kind = MetricValue::Kind::histogram;
    v.name = name;
    v.count = h->count();
    v.sum = h->sum();
    v.p50 = h->quantile(0.50);
    v.p95 = h->quantile(0.95);
    v.p99 = h->quantile(0.99);
    merged[name] = v;
  }

  Snapshot out;
  out.reserve(merged.size());
  for (auto& [name, v] : merged) out.push_back(std::move(v));
  return out;
}

std::vector<HistogramBuckets> MetricsRegistry::histogram_buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramBuckets> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramBuckets b;
    b.name = name;
    b.bounds = h->bounds_;
    b.buckets.reserve(h->buckets_.size());
    for (const auto& bucket : h->buckets_)
      b.buckets.push_back(bucket.load(std::memory_order_relaxed));
    b.count = h->count();
    b.sum = h->sum();
    out.push_back(std::move(b));
  }
  return out;
}

std::string MetricsRegistry::format_text() const {
  std::string out;
  char line[256];
  for (const MetricValue& m : snapshot()) {
    switch (m.kind) {
      case MetricValue::Kind::counter:
        std::snprintf(line, sizeof(line), "%-36s %.0f\n", m.name.c_str(), m.value);
        break;
      case MetricValue::Kind::gauge:
        std::snprintf(line, sizeof(line), "%-36s %g\n", m.name.c_str(), m.value);
        break;
      case MetricValue::Kind::histogram:
        std::snprintf(line, sizeof(line),
                      "%-36s count=%llu sum=%.3f p50=%.3f p95=%.3f p99=%.3f\n",
                      m.name.c_str(), static_cast<unsigned long long>(m.count), m.sum,
                      m.p50, m.p95, m.p99);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace snipe::obs
