// Deterministic fault injection for simnet (DESIGN.md §5-fault; the paper's
// §5–6 survivability claims).
//
// Uniform per-packet loss (MediaModel::loss) is the kindest possible
// failure; the paper's testbed saw the unkind ones: loss that arrives in
// bursts, duplicated and reordered datagrams, flipped bytes, links that die
// and return, sites partitioned from each other, and hosts that crash and
// reboot mid-transfer.  Two pieces model all of that:
//
//  * FaultInjector — a per-network packet mangler consulted by Host::send /
//    Host::broadcast for every datagram: burst loss (a Gilbert–Elliott
//    two-state chain), duplication, reordering (bounded extra delay),
//    byte corruption, and host-group partitions.  Every decision draws, in
//    a fixed order, from a per-source-host lane derived from one seed, so a
//    run is replayable bit-for-bit from its seed — for every shard count of
//    a sharded World — and attaching an injector never perturbs the hosts'
//    own RNG streams (the baseline loss draw is untouched).
//
//  * FaultPlan — a schedule of timed failure windows (link down/up, NIC
//    down/up, host crash/restart, network partitions) executed on the
//    virtual-time engine.  Each action emits an obs trace instant in the
//    "fault" category, so a chaos run's timeline shows exactly when the
//    world turned hostile and traces of two same-seed runs compare equal.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace snipe::simnet {

class World;

/// Gilbert–Elliott two-state burst-loss chain.  The state advances once per
/// judged packet; each state drops with its own probability.  The classic
/// parameterization: rare entry into a short-lived bad state whose loss is
/// near-total models the loss *bursts* real links exhibit, which uniform
/// loss of equal mean does not (it never kills a whole window at once).
struct GilbertElliott {
  double p_enter_bad = 0.0;  ///< per-packet P(good -> bad)
  double p_exit_bad = 0.25;  ///< per-packet P(bad -> good)
  double loss_good = 0.0;    ///< drop probability while good
  double loss_bad = 1.0;     ///< drop probability while bad

  /// Stationary mean loss rate, for sizing test expectations.
  double mean_loss() const {
    double denom = p_enter_bad + p_exit_bad;
    if (denom <= 0) return loss_good;
    double frac_bad = p_enter_bad / denom;
    return loss_good * (1.0 - frac_bad) + loss_bad * frac_bad;
  }
};

/// Stochastic per-packet fault rates.  All probabilities are independent
/// per packet (after the burst-loss chain decides survival).
struct FaultProfile {
  GilbertElliott burst;
  double duplicate = 0.0;  ///< P(deliver a second copy)
  double reorder = 0.0;    ///< P(delay this packet by extra jitter)
  SimDuration reorder_jitter = duration::milliseconds(2);  ///< max extra delay
  double corrupt = 0.0;    ///< P(flip bytes in the datagram)
  std::uint32_t corrupt_max_bytes = 4;  ///< bytes flipped per corruption, 1..n
};

/// Counters are relaxed atomics: an injector on a network that spans
/// shards is consulted from several worker threads at once, and every
/// field is a pure sum.
struct FaultStats {
  std::atomic<std::uint64_t> packets_judged{0};
  std::atomic<std::uint64_t> drops_burst{0};      ///< killed by the Gilbert–Elliott chain
  std::atomic<std::uint64_t> drops_partition{0};  ///< crossed a partition boundary
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> reordered{0};
  std::atomic<std::uint64_t> corrupted{0};
};

/// What the injector decided for one datagram.
struct FaultVerdict {
  bool drop = false;
  bool corrupt = false;
  int copies = 1;                 ///< 2 when duplicated
  SimDuration extra_delay = 0;    ///< reorder jitter for the original
  SimDuration dup_delay = 0;      ///< additional jitter for the duplicate
};

class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, Rng rng)
      : profile_(profile), base_(rng) {}

  /// Judges one datagram from `src` to `dst` as transmitted by `lane` —
  /// the sending host on a first hop, the forwarding router on interior
  /// hops.  Each transmitting node gets its own decision lane — an Rng
  /// stream plus a Gilbert–Elliott burst state — derived order-
  /// independently from the injector's seed and the node's name.  Draws
  /// happen in a fixed order regardless of outcome, so the sequence a lane
  /// sees depends only on (seed, its own packet sequence): never on other
  /// nodes' traffic, and never on which shard of a sharded World the node
  /// runs on.  Lanes are also what make concurrent judging safe: a node's
  /// packets are judged only by its own shard's thread.  The partition
  /// boundary is judged on the packet's end-to-end (src, dst) pair.
  FaultVerdict judge(const std::string& lane, const std::string& src,
                     const std::string& dst);

  /// Flips 1..corrupt_max_bytes bytes of `wire` (no-op on empty), drawing
  /// from `lane`'s Rng stream.
  void corrupt_payload(Bytes& wire, const std::string& lane);
  /// Payload variant: copy-on-write — shared segments are cloned before the
  /// flip so other holders of the same buffer keep the original bytes.  The
  /// RNG draw sequence is identical to the Bytes variant.
  void corrupt_payload(Payload& wire, const std::string& lane);

  /// Splits hosts into isolated groups: packets between different groups
  /// are dropped.  Hosts not named fall into an implicit extra group (they
  /// can talk to each other, but to no named group).
  void set_partition(const std::vector<std::vector<std::string>>& groups);
  void heal_partition() { group_of_.clear(); }
  bool partition_active() const { return !group_of_.empty(); }
  /// True when a packet between `a` and `b` would cross a partition.
  bool partitioned(const std::string& a, const std::string& b) const;

  /// True when any source lane's burst chain is currently in its bad state.
  bool in_bad_state() const;
  const FaultProfile& profile() const { return profile_; }
  const FaultStats& stats() const { return stats_; }

 private:
  /// One source host's decision stream: its Rng and burst-chain state.
  struct Lane {
    Rng rng;
    bool bad = false;
  };
  /// Finds or creates `src`'s lane.  The mutex guards only the map's
  /// structure (lanes are created on first packet, possibly from several
  /// threads); the returned lane itself is mutated exclusively by the
  /// thread simulating `src`'s shard.
  Lane& lane(const std::string& src);

  FaultProfile profile_;
  Rng base_;  ///< never advanced: lanes derive from it by name hash
  mutable std::mutex lanes_mu_;
  std::map<std::string, Lane> lanes_;
  std::map<std::string, int> group_of_;  ///< empty map = no partition
  FaultStats stats_;
};

/// A seeded, replayable schedule of failures against one World.  Actions
/// registered before (or during) a run fire at their virtual times; the
/// same (world seed, plan seed, scenario) triple always produces the same
/// run.  The plan owns the injectors it creates; keep it alive for the
/// duration of the simulation.
class FaultPlan {
 public:
  FaultPlan(World& world, std::uint64_t seed);

  /// Attaches a stochastic fault profile to `network` (replacing any prior
  /// injector) and returns it.  The injector's Rng is forked from the
  /// plan's seed.
  FaultInjector& inject(const std::string& network, const FaultProfile& profile);
  /// The injector currently attached to `network` via this plan, if any.
  FaultInjector* injector(const std::string& network);

  /// Takes the whole network down at `at` and back up at `up_at`
  /// (in-flight packets to it are dropped, as with real link failure).
  void link_down(const std::string& network, SimTime at, SimTime up_at);
  /// Ditto for one host's attachment to a network.
  void nic_down(const std::string& host, const std::string& network, SimTime at,
                SimTime up_at);
  /// Crashes `host` at `at` and reboots it at `restart_at`.  Port bindings
  /// survive (simnet hosts reboot with their services, §5.6's model).
  void crash_host(const std::string& host, SimTime at, SimTime restart_at);
  /// Partitions `network` into `groups` over [at, heal_at).  Installs a
  /// default (no-op profile) injector if none is attached yet.
  void partition(const std::string& network, std::vector<std::vector<std::string>> groups,
                 SimTime at, SimTime heal_at);

  Rng& rng() { return rng_; }

 private:
  /// Schedules `fn` at `at` and emits a "fault" trace instant named `name`.
  void act(SimTime at, std::string name, std::vector<std::pair<std::string, std::string>> args,
           std::function<void()> fn);
  FaultInjector& ensure_injector(const std::string& network);

  World& world_;
  Rng rng_;
  std::vector<std::shared_ptr<FaultInjector>> owned_;
};

}  // namespace snipe::simnet
