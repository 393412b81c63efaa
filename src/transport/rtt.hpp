// Round-trip-time estimation shared by the reliable transports.
#pragma once

#include <algorithm>

#include "util/time.hpp"

namespace snipe::transport {

/// The RFC 6298 estimator SRUDP keeps per peer and a stream per connection:
/// integer EWMAs of the smoothed RTT (gain 1/8) and its mean deviation
/// (gain 1/4).  Callers feed it Karn-filtered samples only; srtt == 0 means
/// no sample yet.
struct RttEstimator {
  SimDuration srtt = 0;
  SimDuration rttvar = 0;

  bool sampled() const { return srtt != 0; }

  void observe(SimDuration sample) {
    if (srtt == 0) {
      srtt = sample;
      rttvar = sample / 2;
      return;
    }
    SimDuration err = sample > srtt ? sample - srtt : srtt - sample;
    rttvar = (3 * rttvar + err) / 4;
    srtt = (7 * srtt + sample) / 8;
  }

  /// The retransmission timeout for the current estimate, srtt + 4·rttvar,
  /// clamped to [min_rto, max_rto].
  SimDuration rto(SimDuration min_rto, SimDuration max_rto) const {
    return std::clamp(srtt + 4 * rttvar, min_rto, max_rto);
  }
};

}  // namespace snipe::transport
