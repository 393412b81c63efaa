// Multi-path route management (§3.4, §6).
//
// "The system also provided the ability to switch routes/interfaces as
//  links failed without user applications intervention."
//
// Each endpoint keeps one MultipathPolicy per peer.  The policy starts on
// the fastest shared network (that choice is simnet's, per §5.3) and reacts
// to evidence of failure — consecutive retransmission timeouts — by
// rotating the preferred interface among the local host's up networks.
// Successful acknowledgements reset the failure count; once a failover
// route has been *quiet* (no timeouts) for `probe_quiet`, the policy drops
// its explicit preference and re-probes the default (fastest) path, so a
// healed fast network is re-adopted instead of the detour being pinned
// forever.  If the fast path is still broken the next timeout pair simply
// rotates away again — the probe costs at most one failover threshold's
// worth of RTOs per quiet period.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/world.hpp"
#include "util/time.hpp"

namespace snipe::transport {

class MultipathPolicy {
 public:
  /// `failover_threshold`: consecutive timeouts on one route before
  /// switching.  The paper's module switched automatically; 2 keeps the
  /// reaction fast without flapping on a single lost status packet.
  /// `probe_quiet`: how long a failover route must stay timeout-free before
  /// the policy re-probes the default (fastest) route; <= 0 disables
  /// probing (the pre-probe pin-forever behaviour).
  explicit MultipathPolicy(int failover_threshold = 2,
                           SimDuration probe_quiet = duration::seconds(10))
      : failover_threshold_(failover_threshold), probe_quiet_(probe_quiet) {}

  /// The network to prefer right now ("" = let simnet pick the fastest).
  const std::string& preferred() const { return preferred_; }

  /// Record a successful round trip on the current route.  `now` is the
  /// caller's clock (virtual time); when a failover route has been quiet
  /// for `probe_quiet`, the preference resets to the default route and this
  /// returns true (a *probe*).
  bool on_success(SimTime now);

  /// Record a retransmission timeout.  When the threshold is reached the
  /// policy rotates to the next up network on `host` (wrapping, skipping
  /// the current one).  Returns true if the route changed.
  bool on_timeout(simnet::Host& host);

  /// Number of route switches performed (exposed for tests/benches).
  int switches() const { return switches_; }
  /// Number of probe resets back to the default route.
  int probes() const { return probes_; }

 private:
  std::string preferred_;
  int consecutive_timeouts_ = 0;
  int failover_threshold_;
  SimDuration probe_quiet_;
  SimTime last_timeout_ = -1;  ///< clock of the most recent timeout
  int switches_ = 0;
  int probes_ = 0;
};

}  // namespace snipe::transport
