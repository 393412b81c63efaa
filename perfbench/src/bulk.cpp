// bulk_transfer: one SRUDP flow and one stream flow between two hosts on a
// flat 100 Mbit Ethernet segment.  Each flow is a closed loop that keeps
// kDepth messages outstanding and enqueues the next message on every
// delivery.  Routing, faults, services and observability are off, so the
// per-message cost of transport, payload and engine dominates.
#include <cmath>
#include <deque>

#include "common.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"
#include "util/payload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kDepth = 2048;

/// Per 50 messages: 49 small (log-uniform in 256 B..4 KiB) and one large
/// (uniform in 64 KiB..1 MiB).
const std::vector<int> kSizeMix = {49, 1};

struct Flow {
  Flow(int id, const char* op_name, Rng rng) : id(id), op_name(op_name), sizes(kSizeMix, rng) {}
  struct Sent {
    std::uint64_t seq;
    std::uint32_t size;
    SimTime at;
  };
  int id;
  const char* op_name;
  Deck sizes;
  std::uint64_t next_seq = 0;
  std::deque<Sent> outstanding;
  std::uint64_t sent_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t violations = 0;
  Fold fold;
  std::uint64_t folded = 0;
};

class BulkTransfer final : public Workload {
 public:
  explicit BulkTransfer(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    world_ = std::make_unique<simnet::World>(seed_);
    auto& lan = world_->create_network("lan", simnet::ethernet100());
    auto& a = world_->create_host("a");
    auto& b = world_->create_host("b");
    world_->attach(a, lan);
    world_->attach(b, lan);
    Rng root(seed_ ^ 0xb01cULL);
    srudp_flow_ = std::make_unique<Flow>(0, "srudp.msg", root.fork());
    stream_flow_ = std::make_unique<Flow>(1, "stream.msg", root.fork());

    tx_ = std::make_unique<transport::SrudpEndpoint>(a, 7001);
    rx_ = std::make_unique<transport::SrudpEndpoint>(b, 7002);
    rx_->set_handler(
        [this](const simnet::Address&, Payload m) { on_delivery(*srudp_flow_, m); });
    client_ = std::make_unique<transport::StreamEndpoint>(a, 8001);
    server_ = std::make_unique<transport::StreamEndpoint>(b, 8002);
    server_->listen([this](std::shared_ptr<transport::StreamConnection> c) {
      accepted_ = c;
      c->set_message_handler([this](Payload m) { on_delivery(*stream_flow_, m); });
    });
    conn_ = client_->connect(server_->address());
    while (!conn_->established() && world_->engine().step()) {
    }
    // Fill both queues, then run long enough that the loop is in steady
    // state: the stream has left slow start and large messages are mid-flight.
    for (std::size_t i = 0; i < kDepth; ++i) {
      send_next(*srudp_flow_);
      send_next(*stream_flow_);
    }
    world_->run_until(world_->now() + duration::milliseconds(500));
  }

  simnet::World& world() override { return *world_; }
  SimDuration step() const override { return duration::milliseconds(80); }
  double nominal_rate() const override { return 13.0; }

  OpCounts counts() const override {
    return {srudp_flow_->delivered + stream_flow_->delivered,
            srudp_flow_->violations + stream_flow_->violations};
  }

  std::uint64_t final_check() override {
    std::uint64_t bad = 0;
    for (Flow* f : {srudp_flow_.get(), stream_flow_.get()}) {
      // Exactly once, in order, by count and by bytes: everything sent is
      // either delivered or still outstanding, and the loop kept its depth.
      std::uint64_t pending_bytes = 0;
      for (const auto& s : f->outstanding) pending_bytes += s.size;
      if (f->delivered + f->outstanding.size() != f->next_seq) ++bad;
      if (f->delivered_bytes + pending_bytes != f->sent_bytes) ++bad;
      if (f->outstanding.size() != kDepth) ++bad;
    }
    return bad;
  }

  std::pair<std::uint64_t, std::uint64_t> digest() const override {
    Fold all;
    all.add(srudp_flow_->fold.h);
    all.add(stream_flow_->fold.h);
    return {all.h, srudp_flow_->folded + stream_flow_->folded};
  }

  void raw_counters(std::map<std::string, double>&) override {}

 private:
  void send_next(Flow& f) {
    Rng& rng = f.sizes.rng();
    const auto size = static_cast<std::uint32_t>(
        f.sizes.next() == 0 ? std::exp2(rng.next_range(8.0, 12.0))
                            : 65536 + rng.next_below(1048576 - 65536 + 1));
    std::uint64_t seq = f.next_seq++;
    Bytes body(size, 0);
    for (int i = 0; i < 8; ++i) body[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
    f.outstanding.push_back({seq, size, world_->now()});
    f.sent_bytes += size;
    CallSpan span(f.id == 0 ? "srudp.send" : "stream.send_message");
    if (f.id == 0)
      tx_->send(rx_->address(), Payload(std::move(body)));
    else
      conn_->send_message(Payload(std::move(body)));
  }

  void on_delivery(Flow& f, const Payload& m) {
    SimTime now = world_->now();
    if (f.outstanding.empty()) {
      ++f.violations;  // a delivery nobody sent: duplicate
      return;
    }
    Flow::Sent s = f.outstanding.front();
    f.outstanding.pop_front();
    PayloadCursor cursor(m);
    auto seq = cursor.u64();
    if (!seq || seq.value() != s.seq || m.size() != s.size) {
      ++f.violations;
    } else {
      ++f.delivered;
      f.delivered_bytes += s.size;
      f.fold.add(s.seq);
      f.fold.add(s.size);
      f.fold.add(static_cast<std::uint64_t>(s.at));
      f.fold.add(static_cast<std::uint64_t>(now));
      ++f.folded;
      Trace::get().op(f.op_name, f.id, s.seq, s.at, now);
    }
    send_next(f);
  }

  std::uint64_t seed_;
  std::unique_ptr<simnet::World> world_;
  std::unique_ptr<Flow> srudp_flow_, stream_flow_;
  std::unique_ptr<transport::SrudpEndpoint> tx_, rx_;
  std::unique_ptr<transport::StreamEndpoint> client_, server_;
  std::shared_ptr<transport::StreamConnection> conn_, accepted_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_transfer(std::uint64_t seed) {
  return std::make_unique<BulkTransfer>(seed);
}

}  // namespace perfbench
