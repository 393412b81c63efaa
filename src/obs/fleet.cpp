#include "obs/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

#include "util/time.hpp"

namespace snipe::obs {

namespace {

/// Upper bound on any decoded element count: wire data is untrusted, and a
/// corrupt length prefix must not turn into a multi-gigabyte allocation.
constexpr std::uint32_t kMaxWireElements = 1u << 20;

Error corrupt(const char* what) { return Error{Errc::corrupt, what}; }

}  // namespace

// ---------- HistogramSketch ----------

bool HistogramSketch::merge(const HistogramSketch& other) {
  if (other.buckets.size() != other.bounds.size() + 1) return false;
  if (bounds.empty() && buckets.empty()) {
    *this = other;
    return true;
  }
  if (bounds != other.bounds || buckets.size() != other.buckets.size()) return false;
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  return true;
}

double HistogramSketch::quantile(double q) const {
  return bucket_quantile(bounds, buckets.size(), count, q,
                         [this](std::size_t i) { return buckets[i]; });
}

void HistogramSketch::encode(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(bounds.size()));
  for (double b : bounds) w.f64(b);
  w.u32(static_cast<std::uint32_t>(buckets.size()));
  for (std::uint64_t b : buckets) w.u64(b);
  w.u64(count);
  w.f64(sum);
}

Result<HistogramSketch> HistogramSketch::decode(ByteReader& r) {
  HistogramSketch s;
  auto nb = r.u32();
  if (!nb) return nb.error();
  if (nb.value() > kMaxWireElements) return corrupt("sketch bounds count");
  s.bounds.reserve(nb.value());
  for (std::uint32_t i = 0; i < nb.value(); ++i) {
    auto v = r.f64();
    if (!v) return v.error();
    s.bounds.push_back(v.value());
  }
  auto nk = r.u32();
  if (!nk) return nk.error();
  if (nk.value() != nb.value() + 1) return corrupt("sketch bucket count");
  s.buckets.reserve(nk.value());
  for (std::uint32_t i = 0; i < nk.value(); ++i) {
    auto v = r.u64();
    if (!v) return v.error();
    s.buckets.push_back(v.value());
  }
  auto count = r.u64();
  if (!count) return count.error();
  s.count = count.value();
  auto sum = r.f64();
  if (!sum) return sum.error();
  s.sum = sum.value();
  return s;
}

// ---------- TelemetryBeacon ----------

namespace {

// v2 added the watchtower series section (PR 10); decode rejects anything
// else — every exporter and collector in a deployment upgrade together.
constexpr std::uint8_t kBeaconVersion = 2;

void encode_flight(ByteWriter& w, const FlightEvent& e) {
  w.i64(e.ts);
  w.str(e.host);
  w.str(e.cat);
  w.str(e.what);
  w.str(e.detail);
}

Result<FlightEvent> decode_flight(ByteReader& r) {
  FlightEvent e;
  auto ts = r.i64();
  if (!ts) return ts.error();
  e.ts = ts.value();
  for (std::string* field : {&e.host, &e.cat, &e.what, &e.detail}) {
    auto s = r.str();
    if (!s) return s.error();
    *field = std::move(s).take();
  }
  return e;
}

Result<std::uint32_t> read_count(ByteReader& r, const char* what) {
  auto n = r.u32();
  if (!n) return n.error();
  if (n.value() > kMaxWireElements) return corrupt(what);
  return n.value();
}

}  // namespace

Bytes TelemetryBeacon::encode() const {
  ByteWriter w;
  w.u8(kBeaconVersion);
  w.str(host);
  w.u64(seq);
  w.i64(ts);
  w.i64(period_ns);
  w.u8(full ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, v] : counters) {
    w.str(name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [name, v] : gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(sketches.size()));
  for (const auto& [name, sketch] : sketches) {
    w.str(name);
    sketch.encode(w);
  }
  w.u32(static_cast<std::uint32_t>(flight.size()));
  for (const auto& e : flight) encode_flight(w, e);
  w.u32(static_cast<std::uint32_t>(series.size()));
  for (const auto& [name, points] : series) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(points.size()));
    for (const SeriesPoint& p : points) {
      w.i64(p.ts);
      w.f64(p.value);
    }
  }
  return std::move(w).take();
}

Result<TelemetryBeacon> TelemetryBeacon::decode(const Bytes& wire) {
  ByteReader r(wire);
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != kBeaconVersion) return corrupt("beacon version");
  TelemetryBeacon b;
  auto host = r.str();
  if (!host) return host.error();
  b.host = std::move(host).take();
  auto seq = r.u64();
  if (!seq) return seq.error();
  b.seq = seq.value();
  auto ts = r.i64();
  if (!ts) return ts.error();
  b.ts = ts.value();
  auto period = r.i64();
  if (!period) return period.error();
  b.period_ns = period.value();
  auto full = r.u8();
  if (!full) return full.error();
  b.full = full.value() != 0;

  auto nc = read_count(r, "beacon counter count");
  if (!nc) return nc.error();
  b.counters.reserve(nc.value());
  for (std::uint32_t i = 0; i < nc.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto v = r.f64();
    if (!v) return v.error();
    b.counters.emplace_back(std::move(name).take(), v.value());
  }
  auto ng = read_count(r, "beacon gauge count");
  if (!ng) return ng.error();
  b.gauges.reserve(ng.value());
  for (std::uint32_t i = 0; i < ng.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto v = r.f64();
    if (!v) return v.error();
    b.gauges.emplace_back(std::move(name).take(), v.value());
  }
  auto ns = read_count(r, "beacon sketch count");
  if (!ns) return ns.error();
  b.sketches.reserve(ns.value());
  for (std::uint32_t i = 0; i < ns.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto sketch = HistogramSketch::decode(r);
    if (!sketch) return sketch.error();
    b.sketches.emplace_back(std::move(name).take(), std::move(sketch).take());
  }
  auto nf = read_count(r, "beacon flight count");
  if (!nf) return nf.error();
  b.flight.reserve(nf.value());
  for (std::uint32_t i = 0; i < nf.value(); ++i) {
    auto e = decode_flight(r);
    if (!e) return e.error();
    b.flight.push_back(std::move(e).take());
  }
  auto nr = read_count(r, "beacon series count");
  if (!nr) return nr.error();
  b.series.reserve(nr.value());
  for (std::uint32_t i = 0; i < nr.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto np = read_count(r, "beacon series point count");
    if (!np) return np.error();
    std::vector<SeriesPoint> points;
    points.reserve(np.value());
    for (std::uint32_t j = 0; j < np.value(); ++j) {
      auto ts = r.i64();
      if (!ts) return ts.error();
      auto v = r.f64();
      if (!v) return v.error();
      points.push_back({ts.value(), v.value()});
    }
    b.series.emplace_back(std::move(name).take(), std::move(points));
  }
  if (!r.done()) return corrupt("trailing beacon bytes");
  return b;
}

// ---------- BeaconBuilder ----------

BeaconBuilder::BeaconBuilder(Options options) : options_(std::move(options)) {
  if (options_.full_every == 0) options_.full_every = 1;
}

MetricsRegistry& BeaconBuilder::registry() const {
  return options_.registry != nullptr ? *options_.registry : MetricsRegistry::global();
}

FlightRecorder& BeaconBuilder::flight() const {
  return options_.flight != nullptr ? *options_.flight : FlightRecorder::global();
}

TelemetryBeacon BeaconBuilder::build(std::int64_t now_ns) {
  ++seq_;
  TelemetryBeacon b;
  b.host = options_.host;
  b.seq = seq_;
  b.ts = now_ns;
  b.period_ns = options_.period_ns;
  b.full = seq_ == 1 || seq_ % options_.full_every == 0;

  // Counters and gauges from the snapshot (which folds pull sources and
  // retained totals into counter entries, exactly what should be exported).
  for (const MetricValue& m : registry().snapshot()) {
    if (m.kind == MetricValue::Kind::counter) {
      double last = 0;
      if (auto it = last_counters_.find(m.name); it != last_counters_.end())
        last = it->second;
      // A value below the baseline means the registry was reset mid-run;
      // re-export from zero and let the next full beacon reconcile.
      double delta = m.value >= last ? m.value - last : m.value;
      if (b.full)
        b.counters.emplace_back(m.name, m.value);
      else if (delta != 0)
        b.counters.emplace_back(m.name, delta);
      last_counters_[m.name] = m.value;
    } else if (m.kind == MetricValue::Kind::gauge) {
      auto it = last_gauges_.find(m.name);
      bool changed = it == last_gauges_.end() || it->second != m.value;
      if (b.full || changed) b.gauges.emplace_back(m.name, m.value);
      last_gauges_[m.name] = m.value;
    }
  }

  // Histograms as raw bucket arrays — the mergeable form.
  for (const auto& h : registry().histogram_buckets()) {
    HistogramSketch abs;
    abs.bounds = h.bounds;
    abs.buckets = h.buckets;
    abs.count = h.count;
    abs.sum = h.sum;
    auto it = last_sketches_.find(h.name);
    if (b.full) {
      b.sketches.emplace_back(h.name, abs);
    } else {
      HistogramSketch delta = abs;
      if (it != last_sketches_.end() && it->second.bounds == abs.bounds &&
          abs.count >= it->second.count) {
        for (std::size_t i = 0; i < delta.buckets.size(); ++i)
          delta.buckets[i] -= it->second.buckets[i];
        delta.count -= it->second.count;
        delta.sum -= it->second.sum;
      }
      if (delta.count > 0) b.sketches.emplace_back(h.name, std::move(delta));
    }
    last_sketches_[h.name] = std::move(abs);
  }

  // Flight entries recorded since the last beacon.  The cursor counts total
  // ever recorded, so entries that rotated out of the ring unseen are simply
  // lost (bounded memory beats completeness here).
  std::uint64_t total = flight().total_recorded();
  if (total > flight_cursor_) {
    std::vector<FlightEvent> window = flight().events();
    std::uint64_t fresh = total - flight_cursor_;
    std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(fresh, window.size()));
    for (std::size_t i = window.size() - take; i < window.size(); ++i) {
      FlightEvent& e = window[i];
      if (!options_.host.empty() && !e.host.empty() && e.host != options_.host) continue;
      b.flight.push_back(std::move(e));
    }
    if (b.flight.size() > options_.max_flight)
      b.flight.erase(b.flight.begin(),
                     b.flight.end() - static_cast<std::ptrdiff_t>(options_.max_flight));
  }
  flight_cursor_ = total;

  // Watchtower series: every retained point newer than the per-series ship
  // cursor.  Full beacons rewind the cursors and ship the whole retention
  // window — the same receiver-passive resync path the counters use; the
  // collector dedups by timestamp so the replay is idempotent.
  if (options_.series != nullptr) {
    for (const std::string& name : options_.series->names()) {
      std::int64_t cursor = b.full ? std::numeric_limits<std::int64_t>::min() : [&] {
        auto it = series_cursor_.find(name);
        return it == series_cursor_.end() ? std::numeric_limits<std::int64_t>::min()
                                          : it->second;
      }();
      std::vector<SeriesPoint> points = options_.series->points_since(name, cursor);
      if (points.empty()) continue;
      if (points.size() > options_.max_series_points)
        points.erase(points.begin(),
                     points.end() - static_cast<std::ptrdiff_t>(options_.max_series_points));
      series_cursor_[name] = points.back().ts;
      b.series.emplace_back(name, std::move(points));
    }
  }
  return b;
}

// ---------- FleetStore ----------

FleetStore::FleetStore() : FleetStore(Options{}) {}

FleetStore::FleetStore(Options options) : options_(options) {
  if (options_.stale_after_beacons <= 0) options_.stale_after_beacons = 3.0;
  if (options_.max_flight_per_host == 0) options_.max_flight_per_host = 1;
}

void FleetStore::apply(const TelemetryBeacon& beacon, std::int64_t arrival_ns) {
  HostState& s = hosts_[beacon.host];
  bool in_seq = s.beacons > 0 && beacon.seq == s.last_seq + 1;

  if (beacon.full) {
    s.counters.clear();
    s.gauges.clear();
    s.sketches.clear();
    for (const auto& [name, v] : beacon.counters) s.counters[name] = v;
    for (const auto& [name, v] : beacon.gauges) s.gauges[name] = v;
    for (const auto& [name, sketch] : beacon.sketches) s.sketches[name] = sketch;
    s.awaiting_full = false;
    ++beacons_applied_;
  } else if (!s.awaiting_full && in_seq) {
    for (const auto& [name, v] : beacon.counters) s.counters[name] += v;
    for (const auto& [name, v] : beacon.gauges) s.gauges[name] = v;
    for (const auto& [name, sketch] : beacon.sketches) {
      if (!s.sketches[name].merge(sketch)) s.sketches[name] = sketch;
    }
    ++beacons_applied_;
  } else {
    // Sequence gap (or no baseline yet): the delta cannot be trusted, so
    // drop its metric content and wait for the exporter's next full beacon
    // — receiver-passive recovery, no extra fan-in traffic.
    if (!s.awaiting_full) ++s.resyncs;
    s.awaiting_full = true;
    ++beacons_dropped_;
  }

  // Series points are absolute samples keyed by timestamp, not deltas:
  // folding them is idempotent (equal stamps overwrite) and order-tolerant
  // (merge backfills interior holes), so they apply even around a resync —
  // a full beacon's cursor rewind heals whatever gap a lost delta left.
  for (const auto& [name, points] : beacon.series)
    for (const SeriesPoint& p : points) s.series.merge(name, p.ts, p.value);

  // Flight entries are append-only context, not deltas: keep them even
  // around a resync.
  for (const FlightEvent& e : beacon.flight) {
    s.flight.push_back(e);
    if (s.flight.size() > options_.max_flight_per_host) s.flight.pop_front();
  }

  // Liveness updates on every beacon, applied or dropped.
  s.last_seq = beacon.seq;
  s.last_ts = beacon.ts;
  s.last_arrival = arrival_ns;
  s.period_ns = beacon.period_ns;
  ++s.beacons;
}

std::vector<std::string> FleetStore::hosts() const {
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& [name, s] : hosts_) out.push_back(name);
  return out;
}

bool FleetStore::stale(const std::string& host, std::int64_t now_ns) const {
  auto it = hosts_.find(host);
  if (it == hosts_.end() || it->second.period_ns <= 0) return false;
  return static_cast<double>(now_ns - it->second.last_arrival) >
         options_.stale_after_beacons * static_cast<double>(it->second.period_ns);
}

std::vector<FleetStore::HostHealth> FleetStore::health(std::int64_t now_ns) const {
  std::vector<HostHealth> out;
  out.reserve(hosts_.size());
  for (const auto& [name, s] : hosts_) {
    HostHealth h;
    h.host = name;
    h.beacons = s.beacons;
    h.resyncs = s.resyncs;
    h.seq = s.last_seq;
    h.last_ts = s.last_ts;
    h.last_arrival = s.last_arrival;
    h.period_ns = s.period_ns;
    if (s.period_ns > 0)
      h.missed = static_cast<double>(now_ns - s.last_arrival) /
                 static_cast<double>(s.period_ns);
    h.stale = s.period_ns > 0 &&
              h.missed > options_.stale_after_beacons;
    out.push_back(std::move(h));
  }
  return out;
}

Snapshot FleetStore::merged_snapshot() const {
  std::map<std::string, MetricValue> merged;
  std::map<std::string, HistogramSketch> sketches;
  for (const auto& [host, s] : hosts_) {
    for (const auto& [name, v] : s.counters) {
      MetricValue& m = merged[name];
      m.kind = MetricValue::Kind::counter;
      m.name = name;
      m.value += v;
    }
    for (const auto& [name, v] : s.gauges) {
      MetricValue& m = merged[name];
      m.kind = MetricValue::Kind::gauge;
      m.name = name;
      m.value += v;
    }
    for (const auto& [name, sketch] : s.sketches) sketches[name].merge(sketch);
  }
  for (const auto& [name, sketch] : sketches) {
    MetricValue& m = merged[name];
    m.kind = MetricValue::Kind::histogram;
    m.name = name;
    m.count = sketch.count;
    m.sum = sketch.sum;
    m.p50 = sketch.quantile(0.50);
    m.p95 = sketch.quantile(0.95);
    m.p99 = sketch.quantile(0.99);
  }
  Snapshot out;
  out.reserve(merged.size());
  for (auto& [name, v] : merged) out.push_back(std::move(v));
  return out;
}

HistogramSketch FleetStore::merged_sketch(const std::string& name) const {
  HistogramSketch out;
  for (const auto& [host, s] : hosts_)
    if (auto it = s.sketches.find(name); it != s.sketches.end()) out.merge(it->second);
  return out;
}

double FleetStore::merged_value(const std::string& name) const {
  double out = 0;
  for (const auto& [host, s] : hosts_) {
    if (auto it = s.counters.find(name); it != s.counters.end()) out += it->second;
    if (auto it = s.gauges.find(name); it != s.gauges.end()) out += it->second;
  }
  return out;
}

double FleetStore::host_value(const std::string& host, const std::string& name) const {
  auto hit = hosts_.find(host);
  if (hit == hosts_.end()) return 0;
  if (auto it = hit->second.counters.find(name); it != hit->second.counters.end())
    return it->second;
  if (auto it = hit->second.gauges.find(name); it != hit->second.gauges.end())
    return it->second;
  return 0;
}

const SeriesStore* FleetStore::host_series(const std::string& host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : &it->second.series;
}

std::string FleetStore::format_series(const std::string& host,
                                      const std::string& prefix) const {
  std::string out;
  for (const auto& [name, s] : hosts_) {
    if (!host.empty() && name != host) continue;
    out += "host " + name + ":\n";
    std::string body = s.series.format_text(prefix);
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size() - 1;
      out += "  " + body.substr(pos, eol - pos + 1);
      pos = eol + 1;
    }
  }
  if (out.empty())
    out = host.empty() ? "(no hosts have beaconed yet)\n"
                       : "(no series for host " + host + ")\n";
  return out;
}

std::vector<FlightEvent> FleetStore::flight(const std::string& host) const {
  std::vector<FlightEvent> out;
  for (const auto& [name, s] : hosts_) {
    if (!host.empty() && name != host) continue;
    out.insert(out.end(), s.flight.begin(), s.flight.end());
  }
  // Hosts were visited in name order, so a stable sort on the timestamp
  // yields one deterministic fleet timeline with name-ordered ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& a, const FlightEvent& b) { return a.ts < b.ts; });
  return out;
}

std::vector<FleetStore::HostRank> FleetStore::top_by_retransmit(std::size_t n) const {
  std::vector<HostRank> out;
  for (const auto& [name, s] : hosts_) {
    auto num = s.counters.find("srudp.fragments_retransmitted");
    auto den = s.counters.find("srudp.fragments_sent");
    if (den == s.counters.end() || den->second <= 0) continue;
    HostRank r;
    r.host = name;
    double retx = num == s.counters.end() ? 0 : num->second;
    r.value = retx / den->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "(retx=%.0f sent=%.0f)", retx, den->second);
    r.detail = buf;
    out.push_back(std::move(r));
  }
  std::stable_sort(out.begin(), out.end(), [](const HostRank& a, const HostRank& b) {
    return a.value > b.value;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<FleetStore::HostRank> FleetStore::top_by_delivery_p99(std::size_t n) const {
  constexpr std::string_view suffix = ".delivery_ms";
  std::vector<HostRank> out;
  for (const auto& [name, s] : hosts_) {
    HostRank r;
    r.host = name;
    bool any = false;
    for (const auto& [metric, sketch] : s.sketches) {
      if (metric.size() <= suffix.size() ||
          metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      if (sketch.empty()) continue;
      double p99 = sketch.quantile(0.99);
      if (!any || p99 > r.value) {
        r.value = p99;
        r.detail = "(" + metric + ")";
        any = true;
      }
    }
    if (any) out.push_back(std::move(r));
  }
  std::stable_sort(out.begin(), out.end(), [](const HostRank& a, const HostRank& b) {
    return a.value > b.value;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::string FleetStore::format_metrics(const std::string& prefix) const {
  std::string out;
  char line[256];
  for (const MetricValue& m : merged_snapshot()) {
    if (!prefix.empty() && m.name.rfind(prefix, 0) != 0) continue;
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

std::string FleetStore::format_flight(const std::string& host) const {
  std::vector<FlightEvent> timeline = flight(host);
  if (timeline.empty())
    return host.empty() ? "(fleet flight empty)"
                        : "(no fleet flight events for host " + host + ")";
  std::string out =
      "fleet flight (" + std::to_string(timeline.size()) + " events):\n";
  for (const auto& e : timeline) {
    out += format_time(e.ts);
    out += " [";
    out += e.host.empty() ? "*" : e.host;
    out += "] ";
    out += e.cat;
    out += '/';
    out += e.what;
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

std::string FleetStore::format_top(std::size_t n) const {
  char buf[160];
  std::string out = "top retransmit_ratio:\n";
  auto retx = top_by_retransmit(n);
  if (retx.empty()) out += "  (none)\n";
  for (const auto& r : retx) {
    std::snprintf(buf, sizeof(buf), "  %-16s %.4f %s\n", r.host.c_str(), r.value,
                  r.detail.c_str());
    out += buf;
  }
  out += "top delivery_p99_ms:\n";
  auto p99 = top_by_delivery_p99(n);
  if (p99.empty()) out += "  (none)\n";
  for (const auto& r : p99) {
    std::snprintf(buf, sizeof(buf), "  %-16s %.3f %s\n", r.host.c_str(), r.value,
                  r.detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace snipe::obs
