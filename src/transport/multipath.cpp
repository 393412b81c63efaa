#include "transport/multipath.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace snipe::transport {

bool MultipathPolicy::on_success(SimTime now) {
  consecutive_timeouts_ = 0;
  if (preferred_.empty() || probe_quiet_ <= 0) return false;
  if (last_timeout_ >= 0 && now - last_timeout_ < probe_quiet_) return false;
  // The detour has been quiet long enough: drop the explicit preference so
  // the next send re-probes the default (fastest) route.
  preferred_.clear();
  ++probes_;
  obs::MetricsRegistry::global().counter("multipath.route_probes").inc();
  return true;
}

bool MultipathPolicy::on_timeout(simnet::Host& host) {
  last_timeout_ = host.engine().now();
  ++consecutive_timeouts_;
  if (consecutive_timeouts_ < failover_threshold_) return false;
  consecutive_timeouts_ = 0;

  std::vector<std::string> ups = host.up_networks();
  if (ups.empty()) return false;
  std::sort(ups.begin(), ups.end());

  std::string next;
  if (preferred_.empty()) {
    // We were on the default (fastest) route; any explicit alternative that
    // differs from what simnet would pick is fine — take the first, and if
    // there is only one network there is nowhere to go.
    if (ups.size() < 2) return false;
    // The fastest network is simnet's default; prefer the *other* one so
    // the switch actually changes the path.  Rank by effective bandwidth.
    auto* fastest_nic = host.nic_on(ups[0]);
    std::string fastest = ups[0];
    double best = 0;
    for (const auto& name : ups) {
      auto* nic = host.nic_on(name);
      const auto& m = nic->network()->model();
      double rate = m.bandwidth_bps * (1.0 - m.cell_tax);
      if (rate > best) {
        best = rate;
        fastest = name;
      }
    }
    (void)fastest_nic;
    for (const auto& name : ups) {
      if (name != fastest) {
        next = name;
        break;
      }
    }
    if (next.empty()) return false;
  } else {
    // Rotate to the next up network after the current preference.
    auto it = std::find(ups.begin(), ups.end(), preferred_);
    std::size_t start = it == ups.end() ? 0 : (it - ups.begin() + 1) % ups.size();
    next = ups[start];
    if (next == preferred_) return false;
  }
  preferred_ = next;
  ++switches_;
  obs::MetricsRegistry::global().counter("multipath.route_switches").inc();
  obs::FlightRecorder::global().record(host.name(), "multipath", "route_switch",
                                       "to=" + preferred_);
  return true;
}

}  // namespace snipe::transport
