#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "obs/metrics.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: global operator new/delete overrides for this binary.
// Counts calls, not bytes.  Each thread increments its own padded slot, so
// the shard workers of a sharded world do not contend on one cache line.
namespace {

constexpr std::size_t kSlots = 64;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

inline void count_alloc() {
  thread_local Slot* slot =
      &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  slot->n.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const auto& [name, e] : values_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

Trace& Trace::get() {
  static Trace trace;
  return trace;
}

void Trace::push(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kCap) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void Trace::wall(const char* name, const char* cat, int tid, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!on_) return;
  push({name, cat, 1, tid, static_cast<double>(start_ns - origin_ns_) / 1e3,
        static_cast<double>(end_ns - start_ns) / 1e3, 0});
}

void Trace::op(const char* name, int tid, std::uint64_t op_id, SimTime start, SimTime end) {
  if (!on_) return;
  push({name, "op", 2, tid, static_cast<double>(start) / 1e3,
        static_cast<double>(end - start) / 1e3, op_id});
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  std::fputs(
      "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"wall clock\"}},\n"
      "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 0, "
      "\"args\": {\"name\": \"virtual time\"}}",
      f);
  for (const Event& e : events_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", \"pid\": %d, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                 e.name.c_str(), e.cat, e.pid, e.tid, e.ts_us, e.dur_us);
    if (e.pid == 2) std::fprintf(f, ", \"args\": {\"op\": %llu}",
                                 static_cast<unsigned long long>(e.id));
    std::fputs("}", f);
  }
  std::fprintf(f, "\n], \"otherData\": {\"dropped\": %llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

std::map<std::string, double> registry_counters() {
  std::map<std::string, double> out;
  for (const auto& m : snipe::obs::MetricsRegistry::global().snapshot())
    if (m.kind == snipe::obs::MetricValue::Kind::counter) out[m.name] = m.value;
  return out;
}

void simnet_counters(simnet::World& world, std::map<std::string, double>& out) {
  double sent = 0, drops = 0;
  for (const auto& [name, net] : world.networks()) {
    const auto& s = net->stats();
    sent += static_cast<double>(s.packets_sent.load());
    drops += static_cast<double>(s.drops_loss.load() + s.drops_down.load() +
                                 s.drops_unbound.load() + s.drops_fault.load());
  }
  out["simnet.datagrams"] = sent;
  out["simnet.drops"] = drops;
  out["engine.events"] = static_cast<double>(world.events_run());
  const auto& rs = world.run_stats();
  out["shard.windows"] = static_cast<double>(rs.windows);
  out["shard.cross_packets"] = static_cast<double>(rs.cross_shard_packets);
  out["shard.busy_ns"] = static_cast<double>(rs.busy_ns);
  out["shard.critpath_ns"] = static_cast<double>(rs.critical_path_ns);
}

}  // namespace perfbench
