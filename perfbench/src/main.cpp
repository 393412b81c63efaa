// The SNIPE benchmark driver.
//
//   snipe_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE] [--shards N]
//
// Builds the workload eleven times (setup_s is the median), then steps the
// world in fixed virtual-time steps through a fixed virtual span: S times
// the workload's nominal rate, so a run on the calibration machine lasts
// about S seconds and every run of a seed does the same work.  Wall times
// are scaled to the calibration machine's speed by a reference kernel run
// after each set-up and between 16 equal chunks of the measured steps; the
// step-time percentiles are medians over those chunks.  Prints one context
// line (box calibration, digest, sample counts) and, last, one JSON result
// line.  With --trace 1 the result holds
// the per-layer metrics: workload counters from the program's public stats,
// the layer ladder, and the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <numeric>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::size_t shards = 2;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "snipe_perfbench: %s\nusage: snipe_perfbench --workload "
               "bulk_transfer|fleet_soak --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--shards N]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v.c_str());
    else if (flag == "--trace") o.trace = v == "1";
    else if (flag == "--trace-out") o.trace_out = v;
    else if (flag == "--shards") o.shards = std::strtoull(v.c_str(), nullptr, 10);
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0 || o.shards < 1) usage("bad numeric argument");
  return o;
}

/// Timing numbers from a Debug or sanitizer build would mislead, so the
/// benchmark refuses to run in one.
void refuse_unoptimized_build() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#ifndef NDEBUG
  sanitized = true;  // assertions on: a Debug build
#endif
  std::string type = PERFBENCH_BUILD_TYPE;
  if (sanitized || (type != "Release" && type != "RelWithDebInfo")) {
    std::fprintf(stderr, "snipe_perfbench: refusing to time a %s build%s\n", type.c_str(),
                 sanitized ? " (sanitizer or assertions enabled)" : "");
    std::exit(3);
  }
}

/// Iterations per second of a dependent integer loop on `threads` threads
/// together: the box's usable parallel speed, against which shard.* reads.
double spin_rate(int threads, double seconds) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  auto body = [seconds](std::uint64_t* out) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, n = 0;
    auto end = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < end) {
      for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      n += 4096;
    }
    *out = n + (x & 1);
  };
  auto start = Clock::now();
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, &counts[static_cast<std::size_t>(t)]);
  for (auto& th : pool) th.join();
  double wall = std::chrono::duration<double>(Clock::now() - start).count();
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return static_cast<double>(total) / wall;
}

/// CPU time of all threads of the process, in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A fixed kernel, independent of the program under test, that gauges how
/// fast the machine is at the moment it runs: a dependent walk over a
/// 32 MiB random cycle (memory latency) and churn in a 20000-entry std::map
/// (allocator and cache-resident pointer chasing), the two kinds of work
/// the simulator's hot paths do.  The shared host the benchmark was
/// calibrated on drifts in speed by up to 2x over minutes, which no run
/// length averages out, so every wall time is scaled by kNominalS over the
/// median pass of the run (README.md, "Machine drift").
class Reference {
 public:
  /// One pass on the calibration machine at its usual speed.
  static constexpr double kNominalS = 0.025;

  Reference() : next_(kSlots) {
    // Sattolo's shuffle: one random cycle through every slot, built in place.
    std::iota(next_.begin(), next_.end(), 0u);
    std::uint64_t x = 0x7ef;
    for (std::size_t i = kSlots - 1; i > 0; --i) std::swap(next_[i], next_[splitmix(x) % i]);
    for (int i = 0; i < 20000; ++i) map_[splitmix(key_)] = i;
  }

  /// Runs one fixed pass.
  void pass() {
    const std::uint64_t a0 = allocations();
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < 100000; ++i) at_ = next_[at_];
    for (int i = 0; i < 20000; ++i) {
      auto it = map_.lower_bound(splitmix(key_));
      if (it == map_.end()) it = map_.begin();
      map_.erase(it);
      map_[splitmix(key_) ^ at_] = i;
    }
    const std::int64_t t1 = wall_ns();
    allocs_ += allocations() - a0;
    pass_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  /// kNominalS over the median pass so far: the factor that turns this
  /// run's wall times into calibration-machine time.
  double scale() const { return kNominalS / median(pass_s_); }

  /// Heap allocations made by the passes so far.
  std::uint64_t allocs() const { return allocs_; }
  /// Wall seconds of every pass so far.
  const std::vector<double>& pass_s() const { return pass_s_; }

 private:
  static constexpr std::size_t kSlots = std::size_t{8} << 20;
  std::vector<std::uint32_t> next_;
  std::map<std::uint64_t, int> map_;
  std::uint32_t at_ = 0;
  std::uint64_t key_ = 1;
  std::uint64_t allocs_ = 0;
  std::vector<double> pass_s_;
};

/// Resident memory of the process now, in bytes.
double resident_bytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Step-time percentiles of a run of consecutive measured steps, scaled.
struct Chunk {
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t beyond_p99 = 0;
};

/// Index one past the last step of chunk `c` of `k` over `n` steps.
std::size_t chunk_end(std::size_t c, std::size_t n, std::size_t k) { return (c + 1) * n / k; }

/// Cuts the measured steps into `k` chunks of equal step count, scaling
/// their times by `scale`.
std::vector<Chunk> cut_chunks(const std::vector<double>& step_ms, double scale, std::size_t k) {
  std::vector<Chunk> out;
  const std::size_t n = step_ms.size();
  k = std::max<std::size_t>(1, std::min(k, n));
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t lo = c ? chunk_end(c - 1, n, k) : 0, hi = chunk_end(c, n, k);
    Chunk ch;
    std::vector<double> sorted(step_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                               step_ms.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(sorted.begin(), sorted.end());
    ch.p50_ms = scale * percentile(sorted, 0.50);
    ch.p99_ms = scale * percentile(sorted, 0.99);
    ch.beyond_p99 = sorted.size() -
                    static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(sorted.size())));
    out.push_back(ch);
  }
  return out;
}

/// Median over chunks of `f(chunk)`.
template <typename F>
double chunk_median(const std::vector<Chunk>& chunks, F f) {
  std::vector<double> v;
  for (const auto& c : chunks) v.push_back(f(c));
  return median(v);
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "bulk_transfer") return make_bulk_transfer(o.seed);
  if (o.workload == "fleet_soak") return make_fleet_soak(o.seed, o.shards);
  usage(("unknown workload " + o.workload).c_str());
}

std::map<std::string, double> read_counters(Workload& w) {
  auto c = registry_counters();
  simnet_counters(w.world(), c);
  w.raw_counters(c);
  return c;
}

/// Per-layer workload counters, as ratios of measured-phase deltas.
void layer_metrics(Metrics& m, const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after, double ops, double sim_s,
                   double wall_s) {
  auto d = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  m.set("engine.events_per_op", ratio(d("engine.events"), ops), "count");
  m.set("simnet.datagrams_per_op", ratio(d("simnet.datagrams"), ops), "count");
  m.set("simnet.drop_ratio", ratio(d("simnet.drops"), d("simnet.datagrams")), "ratio");
  m.set("srudp.frags_per_msg", ratio(d("srudp.fragments_sent"), d("srudp.messages_sent")),
        "count");
  m.set("srudp.retx_ratio", ratio(d("srudp.retransmits"), d("srudp.fragments_sent")), "ratio");
  m.set("stream.segments_per_msg",
        ratio(d("stream.segments_sent"), d("stream.messages_delivered")), "count");
  m.set("stream.retx_ratio", ratio(d("stream.segments_retransmitted"), d("stream.segments_sent")),
        "ratio");
  auto exporters = after.find("telemetry.hosts");
  m.set("telemetry.beacons_per_host_s",
        ratio(d("telemetry.beacons_sent"),
              (exporters == after.end() ? 0.0 : exporters->second) * sim_s),
        "1/s");
  m.set("shard.windows_per_sim_s", ratio(d("shard.windows"), sim_s), "1/s");
  m.set("shard.cross_packets_per_op", ratio(d("shard.cross_packets"), ops), "count");
  m.set("shard.busy_per_wall", ratio(d("shard.busy_ns"), wall_s * 1e9), "ratio");
  m.set("shard.critpath_per_wall", ratio(d("shard.critpath_ns"), wall_s * 1e9), "ratio");
}

int run(const Options& o) {
  refuse_unoptimized_build();
  const unsigned nproc = std::thread::hardware_concurrency();
  const double spin1 = spin_rate(1, 0.2);
  const double spin2 = spin_rate(2, 0.2);

  // The reference lives through the whole run; its memory is taken off
  // peak_rss_mb.
  const double rss0 = resident_bytes();
  Reference ref;
  const double ref_rss = resident_bytes() - rss0;

  // Set up several times; report the median and measure on the last.
  constexpr int setups = 11;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    w = make(o);
    auto t0 = Clock::now();
    w->setup();
    setup_times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    ref.pass();
  }
  simnet::World& world = w->world();
  const SimDuration step = w->step();

  // Measured phase.  In a traced run, tracing alternates on and off every
  // kBlock steps so the overhead compares like with like.
  constexpr std::size_t kBlock = 64;
  // A reference pass runs after each of kChunks runs of consecutive steps,
  // and the step-time percentiles are medians over them, so a burst from
  // another process that covers a few chunks does not move them.
  constexpr std::size_t kChunks = 16;
  Trace& trace = Trace::get();
  const auto before = read_counters(*w);
  const OpCounts ops0 = w->counts();
  const std::uint64_t alloc0 = allocations();
  const SimTime vt0 = world.now();
  const double cpu0 = process_cpu_s();
  const std::uint64_t ref_allocs0 = ref.allocs();
  const std::size_t ref_passes0 = ref.pass_s().size();
  std::size_t chunks_done = 0;
  const std::int64_t t0 = wall_ns();
  const std::int64_t steps_wanted = std::max<std::int64_t>(
      1, std::llround(o.seconds * w->nominal_rate() * 1e9 / static_cast<double>(step)));
  const SimTime end = vt0 + steps_wanted * step;
  // A run this far behind the calibration machine would not finish in time.
  const std::int64_t cap_ns = static_cast<std::int64_t>(std::min(8.0 * o.seconds, 110.0) * 1e9);
  std::vector<double> step_ms;
  double wall_on = 0, wall_off = 0, ops_on = 0, ops_off = 0;
  std::int64_t run_ns = 0;
  bool finished = false;
  while (true) {
    bool traced = o.trace && (step_ms.size() / kBlock) % 2 == 1;
    trace.set_on(traced);
    std::uint64_t done_before = w->counts().completed;
    std::int64_t s0 = wall_ns();
    world.run_until(world.now() + step);
    std::int64_t s1 = wall_ns();
    trace.wall("step", "step", 2, s0, s1);
    run_ns += s1 - s0;
    step_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
    double done = static_cast<double>(w->counts().completed - done_before);
    (traced ? wall_on : wall_off) += static_cast<double>(s1 - s0) / 1e9;
    (traced ? ops_on : ops_off) += done;
    finished = world.now() >= end;
    if (step_ms.size() == chunk_end(chunks_done, static_cast<std::size_t>(steps_wanted), kChunks)) {
      ref.pass();
      ++chunks_done;
    }
    if (finished || s1 - t0 >= cap_ns) break;
  }
  const std::int64_t t1 = wall_ns();
  const double run_s = static_cast<double>(run_ns) / 1e9;
  double ref_s = 0;
  for (std::size_t i = ref_passes0; i < ref.pass_s().size(); ++i) ref_s += ref.pass_s()[i];
  const double wall_s = static_cast<double>(t1 - t0) / 1e9 - ref_s;
  const double cpu_s = process_cpu_s() - cpu0 - ref_s;
  trace.set_on(o.trace);
  trace.wall(o.workload.c_str(), "workload", 1, t0, t1);
  trace.set_on(false);
  const std::uint64_t allocs = allocations() - alloc0 - (ref.allocs() - ref_allocs0);
  const double sim_s = static_cast<double>(world.now() - vt0) / 1e9;
  const auto after = read_counters(*w);
  const OpCounts ops1 = w->counts();
  const std::uint64_t violations = w->final_check();
  const double ops = static_cast<double>(ops1.completed - ops0.completed);
  const std::uint64_t failed = ops1.failed - ops0.failed + violations;
  const std::uint64_t attempted = static_cast<std::uint64_t>(ops) + failed;
  const auto [digest, digest_ops] = w->digest();
  bool correct = failed == 0 && finished && digest_ops > 0 && ops > 0;

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = (static_cast<double>(ru.ru_maxrss) * 1024.0 - ref_rss) / 1048576.0;

  const std::vector<Chunk> chunks = cut_chunks(step_ms, ref.scale(), kChunks);
  std::size_t beyond_p99 = 0;
  for (const auto& c : chunks) beyond_p99 += c.beyond_p99;
  if (beyond_p99 < 10) correct = false;  // too few samples for a p99

  Metrics m;
  if (!o.trace) {
    m.set("setup_s", median(setup_times) * ref.scale(), "s");
    m.set("ops_per_s", ops / (run_s * ref.scale()), "ops/s");
    m.set("sim_s_per_s", sim_s / (run_s * ref.scale()), "s/s");
    m.set("step_ms_p50", chunk_median(chunks, [](const Chunk& c) { return c.p50_ms; }), "ms");
    m.set("step_ms_p99", chunk_median(chunks, [](const Chunk& c) { return c.p99_ms; }), "ms");
    m.set("allocs_per_op", ratio(static_cast<double>(allocs), ops), "count");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    m.set("ok_ratio", ratio(ops, static_cast<double>(attempted)), "ratio");
  } else {
    layer_metrics(m, before, after, ops, sim_s, wall_s);
    m.set("fail_ratio", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio");
    m.set("driver.enqueue_ns_per_op", ratio(static_cast<double>(trace.enqueue_ns()), ops_on),
          "ns");
    m.set("driver.run_ns_per_op", ratio(static_cast<double>(run_ns), ops), "ns");
    const double rate_on = ratio(ops_on, wall_on), rate_off = ratio(ops_off, wall_off);
    m.set("trace.ops_per_s_traced", rate_on, "ops/s");
    m.set("trace.overhead_ratio", rate_off == 0 ? 0.0 : 1.0 - rate_on / rate_off, "ratio");
    w.reset();  // free the workload's memory before the ladder
    trace.set_on(true);
    correct = run_ladder(m) && correct;
    trace.set_on(false);
  }

  bool trace_written = false;
  if (o.trace && !o.trace_out.empty()) {
    trace_written = trace.write(o.trace_out);
    correct = correct && trace_written;
  }

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"build_type\": \"%s\", "
      "\"nproc\": %u, \"spin_1t_per_s\": %.6g, \"spin_2t_per_s\": %.6g, "
      "\"spin_2t_speedup\": %.4f, \"shards\": %zu, \"setups_s\": [",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), PERFBENCH_BUILD_TYPE, nproc,
      spin1, spin2, spin2 / spin1, o.workload == "fleet_soak" ? o.shards : std::size_t{1});
  for (std::size_t i = 0; i < setup_times.size(); ++i)
    std::printf("%s%.4f", i ? ", " : "", setup_times[i]);
  std::printf("], \"ref_scale\": %.4f, \"ref_pass_ms\": [", ref.scale());
  for (std::size_t i = 0; i < ref.pass_s().size(); ++i)
    std::printf("%s%.4f", i ? ", " : "", ref.pass_s()[i] * 1e3);
  std::printf(
      "], \"step_virtual_ms\": %.3f, \"steps\": %zu, \"chunks\": %zu, "
      "\"steps_beyond_p99\": %zu, "
      "\"sim_s\": %.4f, \"run_s\": %.4f, \"wall_s\": %.4f, \"cpu_s\": %.4f, "
      "\"digest\": \"%016llx\", "
      "\"digest_ops\": %llu, "
      "\"finished\": %s, \"violations\": %llu, "
      "\"trace_file\": \"%s\", \"trace_spans\": %llu, \"trace_dropped\": %llu}}\n",
      static_cast<double>(step) / 1e6, step_ms.size(), chunks.size(), beyond_p99,
      sim_s, run_s, wall_s, cpu_s, static_cast<unsigned long long>(digest),
      static_cast<unsigned long long>(digest_ops), finished ? "true" : "false",
      static_cast<unsigned long long>(violations), trace_written ? o.trace_out.c_str() : "",
      static_cast<unsigned long long>(trace.kept()),
      static_cast<unsigned long long>(trace.dropped()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  w.reset();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
