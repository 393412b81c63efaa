// Shared pieces of the SNIPE benchmark: the allocation counter, the wall
// clock, the metric sink, the in-memory Chrome trace, and the Workload
// interface every workload implements.
//
// The benchmark measures the simulator's host cost.  Virtual-time results
// are the model's output: they are folded into a digest and checked, never
// reported as a speed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simnet/world.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace perfbench {

using namespace snipe;

using Clock = std::chrono::steady_clock;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by every thread of this process so far (counted by
/// the benchmark's own operator new).
std::uint64_t allocations();

/// Metrics by name, each with its unit, printed in insertion-independent
/// (sorted) order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// 0 when `den` is 0, so ratios over absent traffic read as zero.
inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// In-memory Chrome trace_event recorder for the traced run.  Wall-clock
/// spans live in process 1 (workload -> step -> layer call, plus one span
/// per ladder rung); virtual-time spans, one per operation keyed by its id,
/// live in process 2.  Spans are kept in memory up to a cap and written
/// once at exit.
class Trace {
 public:
  static Trace& get();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// A wall-clock span [start_ns, end_ns) on track `tid`.
  void wall(const char* name, const char* cat, int tid, std::int64_t start_ns,
            std::int64_t end_ns);
  /// A virtual-time span for one operation.
  void op(const char* name, int tid, std::uint64_t op_id, SimTime start, SimTime end);

  /// Wall time spent inside the benchmark's calls into the program
  /// (driver.enqueue_ns_per_op); calls may come from shard threads.
  std::int64_t enqueue_ns() const { return enqueue_ns_.load(std::memory_order_relaxed); }
  void add_enqueue(std::int64_t ns) { enqueue_ns_.fetch_add(ns, std::memory_order_relaxed); }

  std::uint64_t kept() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    const char* cat;
    int pid;
    int tid;
    double ts_us;
    double dur_us;
    std::uint64_t id;
  };
  static constexpr std::size_t kCap = 200000;
  void push(Event e);

  bool on_ = false;
  std::atomic<std::int64_t> enqueue_ns_{0};
  std::mutex mu_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_ = wall_ns();
};

/// Times one call into a layer's public API when tracing is on: a wall span
/// under the current step plus the enqueue-time total.  Free when off.
class CallSpan {
 public:
  explicit CallSpan(const char* name)
      : name_(name), start_(Trace::get().on() ? wall_ns() : 0) {}
  ~CallSpan() {
    if (start_ == 0) return;
    std::int64_t end = wall_ns();
    Trace::get().add_enqueue(end - start_);
    Trace::get().wall(name_, "call", 3, start_, end);
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_;
};

/// Order-sensitive 64-bit fold (FNV-1a over 64-bit words) for virtual-time
/// digests.  Each flow or client folds its own operations in completion
/// order; the workload combines the per-flow folds in flow order, so the
/// digest does not depend on which shard thread ran which flow.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Seeded operation mix: a deck holding `counts[k]` cards of kind k,
/// reshuffled whenever it runs out.  The mix is exact over every deck, so a
/// seed changes the order of operations but not their shares.
class Deck {
 public:
  Deck(const std::vector<int>& counts, Rng rng) : rng_(rng) {
    for (std::size_t k = 0; k < counts.size(); ++k)
      for (int i = 0; i < counts[k]; ++i) cards_.push_back(static_cast<int>(k));
    pos_ = cards_.size();
  }
  int next() {
    if (pos_ == cards_.size()) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i)
        std::swap(cards_[i], cards_[rng_.next_below(i + 1)]);
      pos_ = 0;
    }
    return cards_[pos_++];
  }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<int> cards_;
  std::size_t pos_ = 0;
};

/// Per-operation counts a workload keeps.  `failed` covers operations that
/// failed, expired, or failed an output check.
struct OpCounts {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

/// One benchmark workload: a seeded, deterministic simulation.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the world, preloads state, starts the load and warms up until
  /// route caches are filled and first beacons are out.
  virtual void setup() = 0;
  virtual simnet::World& world() = 0;

  /// Fixed virtual-time step of the measured phase.
  virtual SimDuration step() const = 0;
  /// Virtual seconds per wall second the simulator reached on the machine
  /// the benchmark was calibrated on (4-vCPU x86 VM, Release build) in one
  /// of its slow stretches: --seconds S measures a fixed virtual span of S
  /// times this, so every run of a seed does the same work and a run on
  /// that machine lasts at most about S seconds.
  virtual double nominal_rate() const = 0;

  virtual OpCounts counts() const = 0;
  /// End-of-run output checks (counts, bytes, state); returns violations.
  virtual std::uint64_t final_check() = 0;
  /// Digest of every operation's virtual start and completion time, with
  /// the number of operations it covers.
  virtual std::pair<std::uint64_t, std::uint64_t> digest() const = 0;

  /// Adds cumulative raw counters only the workload can read (its RPC
  /// endpoints, its exporter count) to `out`.  The driver reads them at the
  /// start and end of the measured phase and reports ratios of deltas.
  virtual void raw_counters(std::map<std::string, double>& out) = 0;
};

std::unique_ptr<Workload> make_bulk_transfer(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_soak(std::uint64_t seed, std::size_t shards);

/// Runs every ladder rung and fills `out` with the per-layer ladder metrics.
/// Returns false if any rung's operations did not all complete.
bool run_ladder(Metrics& out);

/// Sums of the program's registry counters (pull sources included) by name.
std::map<std::string, double> registry_counters();

/// Network-level totals over every network of `world`.
void simnet_counters(simnet::World& world, std::map<std::string, double>& out);

}  // namespace perfbench
