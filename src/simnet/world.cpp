#include "simnet/world.hpp"

#include <algorithm>
#include <cassert>
#include <ctime>
#include <queue>

#include "simnet/fault.hpp"
#include "simnet/topo.hpp"

namespace snipe::simnet {

namespace {

/// Shard index of the calling thread: workers of a sharded World set this
/// for their lifetime; -1 on the coordinator (and every other) thread.
thread_local int t_current_shard = -1;

/// CPU time consumed by the calling thread.  This is what the windowed
/// driver charges per shard per window: on a box with fewer cores than
/// shards the wall clock measures scheduling luck, while the per-window
/// maximum of this is the true critical path of the parallel execution.
std::uint64_t thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
#endif
  return 0;
}

SimTime sat_add(SimTime a, SimTime b) {
  return b >= Engine::kNever - a ? Engine::kNever : a + b;
}

/// Deterministic equal-cost tie-break for route resolution: FNV-1a over the
/// (src, dst, relaxed edge) names, so distinct host pairs spread across
/// parallel fabric planes while one pair always takes one path.
std::uint64_t route_tie(const std::string& src, const std::string& dst,
                        const std::string& from, const std::string& to,
                        const std::string& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0x1f) * 1099511628211ULL;  // separator: "ab"+"c" != "a"+"bc"
  };
  mix(src);
  mix(dst);
  mix(from);
  mix(to);
  mix(net);
  return h;
}

/// `src`'s NIC on the fastest up network `dst` is also attached to, or on
/// `preferred` when that is one of them; nullptr when none is shared.
Nic* fastest_shared_nic(const Host& src, Host& dst, const std::string& preferred) {
  // §5.3: "the message is sent using the fastest of those" — the shared up
  // networks ordered by effective bandwidth, then lower latency, then name
  // for determinism; the first NIC wins among equals.  One pass, no
  // allocation: this runs once per datagram.
  auto faster = [](const Network* a, const Network* b) {
    const MediaModel& ma = a->model();
    const MediaModel& mb = b->model();
    double ea = ma.bandwidth_bps * (1.0 - ma.cell_tax);
    double eb = mb.bandwidth_bps * (1.0 - mb.cell_tax);
    if (ea != eb) return ea > eb;
    if (ma.latency != mb.latency) return ma.latency < mb.latency;
    return a->name() < b->name();
  };
  Nic* best = nullptr;
  for (const auto& nic : src.nics()) {
    Network* net = nic->network();
    if (!nic->up() || !net->up() || dst.nic_on(net->name()) == nullptr) continue;
    if (!preferred.empty() && net->name() == preferred) return nic.get();
    if (best == nullptr || faster(net, best->network())) best = nic.get();
  }
  return best;
}

}  // namespace

Host* Nic::host() const { return node_->is_router() ? nullptr : static_cast<Host*>(node_); }

void Nic::set_up(bool up) {
  // Routes can traverse zone-owned segments and any NIC of a router (even
  // on a zoneless network), so either kind of flap invalidates caches.
  // Host NICs on flat networks never appear inside a route's interior.
  if (up_ != up && node_->world() != nullptr &&
      (network_->zone() != nullptr || node_->is_router()))
    node_->world()->bump_route_epoch();
  up_ = up;
}

SimTime Nic::transmit(std::size_t bytes) {
  const MediaModel& model = network_->model();
  SimTime start = std::max(node_->engine().now(), next_free());
  SimDuration ser = model.serialize_time(bytes);
  next_free_.store(start + ser, std::memory_order_relaxed);
  tx_packets_.fetch_add(1, std::memory_order_relaxed);
  tx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<std::uint64_t>(ser), std::memory_order_relaxed);
  return start + ser + model.latency;
}

void Network::set_up(bool up) {
  if (up_ != up && world_ != nullptr) world_->bump_route_epoch();
  up_ = up;
}

bool Network::carry(std::size_t bytes, Rng& rng) {
  stats_.packets_sent++;
  stats_.bytes_sent += bytes;
  if (!rng.chance(total_loss())) return true;
  stats_.drops_loss++;
  return false;
}

Node::Node(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard,
           bool is_router)
    : world_(world),
      name_(std::move(name)),
      rng_(rng),
      engine_(engine),
      shard_(shard),
      is_router_(is_router) {}

void Node::set_up(bool up) {
  if (up_ != up && is_router_ && world_ != nullptr) world_->bump_route_epoch();
  up_ = up;
}

Nic* Node::nic_on(const std::string& network) {
  for (auto& nic : nics_)
    if (nic->network()->name() == network) return nic.get();
  return nullptr;
}

Host::Host(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard)
    : Node(world, std::move(name), rng, engine, shard, /*is_router=*/false),
      log_("host@" + name_) {}

Result<void> Host::bind(std::uint16_t port, PacketHandler handler) {
  if (ports_.count(port))
    return Error{Errc::already_exists, name_ + " port " + std::to_string(port) + " in use"};
  ports_[port] = std::move(handler);
  return ok_result();
}

void Host::unbind(std::uint16_t port) { ports_.erase(port); }

std::uint16_t Host::ephemeral_port() {
  while (ports_.count(next_ephemeral_)) {
    ++next_ephemeral_;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
  }
  return next_ephemeral_++;
}

std::vector<std::string> Host::up_networks() const {
  std::vector<std::string> out;
  for (const auto& nic : nics_)
    if (nic->up() && nic->network()->up()) out.push_back(nic->network()->name());
  return out;
}

Result<std::string> Host::send(const Address& dst, Payload payload, const SendOptions& opts) {
  if (!up_) return Error{Errc::unreachable, name_ + " is down"};
  Host* dst_host = world_->host(dst.host);
  if (!dst_host) return Error{Errc::not_found, "no such host " + dst.host};

  // The first hop: a shared network when there is one (never cached — the
  // flat model resolves no routes), else the cached multi-hop route.
  std::shared_ptr<const Route> route;
  Nic* ours = fastest_shared_nic(*this, *dst_host, opts.preferred_network);
  if (ours == nullptr) {
    route = world_->resolve_route(*this, dst.host);
    if (route == nullptr)
      return Error{Errc::unreachable, "no shared network between " + name_ + " and " + dst.host};
    ours = route->hops[0].tx;
  }
  Network* net = ours->network();
  std::size_t mtu = route != nullptr ? route->mtu : net->model().mtu;
  if (payload.size() > mtu)
    return Error{Errc::invalid_argument,
                 "datagram of " + std::to_string(payload.size()) + " bytes exceeds " +
                     (route != nullptr ? "route MTU " + std::to_string(mtu) + " towards " +
                                             dst.host
                                       : "MTU " + std::to_string(mtu) + " on " + net->name())};

  SimTime arrival = ours->transmit(payload.size());
  if (!net->carry(payload.size(), rng_)) return net->name();  // like UDP: the sender cannot tell
  Packet packet{Address{name_, opts.src_port}, dst, std::move(payload), net->name()};
  world_->judge_and_post(net, name_, arrival, std::move(packet), dst_host, route, 1);
  return net->name();
}

void Host::deliver(Packet packet, Network* network) {
  // Conditions are re-checked at delivery time: the destination may have
  // died or the link may have failed while the packet was in flight.
  Nic* nic = nic_on(network->name());
  if (!up_ || !network->up() || nic == nullptr || !nic->up()) {
    network->stats().drops_down++;
    return;
  }
  auto it = ports_.find(packet.dst.port);
  if (it == ports_.end()) {
    network->stats().drops_unbound++;
    return;
  }
  network->stats().packets_delivered++;
  it->second(packet);
}

Result<void> Host::broadcast(const std::string& network, std::uint16_t port, Payload payload,
                             std::uint16_t src_port) {
  if (!up_) return Error{Errc::unreachable, name_ + " is down"};
  Nic* ours = nic_on(network);
  if (ours == nullptr || !ours->up() || !ours->network()->up())
    return Error{Errc::unreachable, name_ + " has no up NIC on " + network};
  Network* net = ours->network();
  if (payload.size() > net->model().mtu)
    return Error{Errc::invalid_argument, "broadcast exceeds MTU on " + network};

  // One serialization, one arrival event per receiver — shared-medium
  // broadcast, with loss drawn independently per receiver.  Routers on the
  // segment do not receive broadcasts.
  SimTime arrival = ours->transmit(payload.size());
  for (Nic* nic : net->nics()) {
    Host* target = nic->host();
    if (target == this || target == nullptr) continue;
    if (!net->carry(payload.size(), rng_)) continue;
    Packet packet{Address{name_, src_port}, Address{target->name(), port}, payload,
                  net->name()};
    world_->judge_and_post(net, name_, arrival, std::move(packet), target, nullptr, 0);
  }
  return ok_result();
}

World::World(std::uint64_t seed, std::size_t shards) {
  assert(shards >= 1 && "a World needs at least one shard");
  engines_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Shard 0 carries the run seed: hosts fork their RNGs from it in
    // creation order, so the per-host streams are identical for every shard
    // count.  The other engines get decorrelated seeds of their own.
    engines_.push_back(
        std::make_unique<Engine>(seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i)));
  }
  if (shards > 1) {
    // Constructed last so the coordinator thread's fallback trace/log clock
    // is the control engine's.
    ctrl_engine_ = std::make_unique<Engine>(seed ^ 0xc2b2ae3d27d4eb4fULL);
    ctrl_ = ctrl_engine_.get();
  } else {
    ctrl_ = engines_[0].get();
  }
  mail_.resize(shards);
  for (auto& row : mail_) row.resize(shards);
  mail_seq_.assign(shards, 0);
  shard_busy_ns_.assign(shards, 0);
}

World::~World() {
  stop_workers();
  // Pending events may own endpoints that unbind from hosts on
  // destruction; release them while the hosts are still alive.
  if (ctrl_engine_) ctrl_engine_->clear();
  for (auto& e : engines_) e->clear();
  for (auto& row : mail_)
    for (auto& cell : row) cell.clear();
}

SimTime World::now() const {
  Engine* e = Engine::thread_engine();
  return e != nullptr ? e->now() : ctrl_->now();
}

Network& World::create_network(const std::string& name, MediaModel model) {
  assert(!networks_.count(name) && "duplicate network name");
  auto net = std::make_unique<Network>(name, std::move(model));
  net->world_ = this;
  Network& ref = *net;
  networks_[name] = std::move(net);
  return ref;
}

Host& World::create_host(const std::string& name, std::size_t shard) {
  assert(!hosts_.count(name) && "duplicate host name");
  assert(shard < engines_.size() && "shard out of range");
  auto host = std::make_unique<Host>(this, name, engines_[0]->rng().fork(),
                                     engines_[shard].get(), shard);
  Host& ref = *host;
  hosts_[name] = std::move(host);
  return ref;
}

Router& World::create_router(const std::string& name, std::size_t shard) {
  assert(!routers_.count(name) && !hosts_.count(name) && "duplicate node name");
  assert(shard < engines_.size() && "shard out of range");
  auto router = std::make_unique<Router>(this, name, engines_[0]->rng().fork(),
                                         engines_[shard].get(), shard);
  Router& ref = *router;
  routers_[name] = std::move(router);
  bump_route_epoch();
  return ref;
}

Nic& World::attach(Node& node, Network& network) {
  auto nic = std::make_unique<Nic>(&node, &network);
  Nic& ref = *nic;
  network.nics_.push_back(nic.get());
  node.nics_.push_back(std::move(nic));
  if (network.zone() != nullptr || node.is_router()) bump_route_epoch();
  return ref;
}

Nic& World::attach(const std::string& host_name, const std::string& network_name) {
  Host* h = host(host_name);
  Network* n = network(network_name);
  assert(h && n && "attach: unknown host or network");
  return attach(*h, *n);
}

Host* World::host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Router* World::router(const std::string& name) {
  auto it = routers_.find(name);
  return it == routers_.end() ? nullptr : it->second.get();
}

Network* World::network(const std::string& name) {
  auto it = networks_.find(name);
  return it == networks_.end() ? nullptr : it->second.get();
}

// ---- multi-hop route resolution -------------------------------------------

std::shared_ptr<const Route> World::resolve_route(Host& src, const std::string& dst) {
  std::uint64_t epoch = route_epoch();
  auto it = src.route_cache_.find(dst);
  if (it != src.route_cache_.end() && it->second.epoch == epoch) return it->second.route;
  Host* dst_host = host(dst);
  std::shared_ptr<const Route> route =
      dst_host == nullptr || dst_host == &src ? nullptr : compute_route(src, *dst_host);
  src.route_cache_[dst] = Host::CachedRoute{epoch, route};
  return route;
}

std::shared_ptr<const Route> World::compute_route(Host& src, Host& dst) {
  // Latency-shortest path over up links.  Vertices are nodes; an up network
  // connects every pair of its up attachments at the network's propagation
  // latency (counted once per traversal).  Hosts never forward: only the
  // source expands among hosts, and only the destination terminates.  The
  // destination itself is exempt from up checks — like the direct path, a
  // packet to a down endpoint still transmits and drops at delivery, so an
  // endpoint crash never changes route structure (and never needs an epoch
  // bump: the cached route stays correct across the restart).
  // Equal-cost ties are broken by a deterministic per-(src,dst,edge) hash,
  // so distinct pairs spread across parallel fabric planes (ECMP) while the
  // choice never depends on memory layout or thread timing.
  struct State {
    SimDuration dist = 0;
    std::uint64_t tie = 0;
    Node* prev = nullptr;
    Nic* via_tx = nullptr;
    Network* via_net = nullptr;
    std::size_t mtu = static_cast<std::size_t>(-1);
    bool done = false;
  };
  struct QItem {
    SimDuration dist;
    std::uint64_t tie;
    Node* node;
  };
  auto later = [](const QItem& a, const QItem& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.tie != b.tie) return a.tie > b.tie;
    return a.node->name() > b.node->name();
  };
  std::map<Node*, State> states;  // pointer keys: lookup only, never iterated
  std::priority_queue<QItem, std::vector<QItem>, decltype(later)> queue(later);
  states[&src] = State{};
  queue.push(QItem{0, 0, &src});
  while (!queue.empty()) {
    QItem top = queue.top();
    queue.pop();
    State& su = states[top.node];
    if (su.done || top.dist != su.dist || top.tie != su.tie) continue;  // stale entry
    su.done = true;
    if (top.node == &dst) break;
    if (top.node != &src && !top.node->is_router()) continue;
    for (const auto& nic : top.node->nics()) {
      Network* net = nic->network();
      if (!nic->up() || !net->up()) continue;
      SimDuration ndist = sat_add(top.dist, net->model().latency);
      std::size_t nmtu = std::min(su.mtu, net->model().mtu);
      for (Nic* other : net->nics()) {
        if (other == nic.get()) continue;
        Node* v = other->node();
        if (!v->is_router() && v != &dst) continue;
        if (v != &dst && (!other->up() || !v->up())) continue;
        std::uint64_t tie =
            route_tie(src.name(), dst.name(), top.node->name(), v->name(), net->name());
        State& sv = states[v];  // value-initialized on first touch
        bool fresh = sv.via_net == nullptr && v != &src;
        if (sv.done) continue;
        if (!fresh && (ndist > sv.dist || (ndist == sv.dist && tie >= sv.tie))) continue;
        sv.dist = ndist;
        sv.tie = tie;
        sv.prev = top.node;
        sv.via_tx = nic.get();
        sv.via_net = net;
        sv.mtu = nmtu;
        queue.push(QItem{ndist, tie, v});
      }
    }
  }
  auto dit = states.find(&dst);
  if (dit == states.end() || !dit->second.done) return nullptr;
  auto route = std::make_shared<Route>();
  route->dst = &dst;
  route->latency = dit->second.dist;
  route->mtu = dit->second.mtu;
  for (Node* n = &dst; n != &src;) {
    const State& s = states[n];
    route->hops.push_back(RouteHop{s.via_tx, s.via_net});
    n = s.prev;
  }
  std::reverse(route->hops.begin(), route->hops.end());
  return route;
}

SimDuration World::net_distance(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  Host* ha = host(a);
  Host* hb = host(b);
  if (ha == nullptr || hb == nullptr) return kUnreachable;
  // Adjacent pair: the flat model's answer (best shared-network latency),
  // kept as a fast path so replica ranking inside a rack never pays a
  // graph walk.
  SimDuration best = kUnreachable;
  for (const auto& nic : ha->nics()) {
    if (!nic->up() || !nic->network()->up()) continue;
    Nic* theirs = hb->nic_on(nic->network()->name());
    if (theirs == nullptr || !theirs->up()) continue;
    best = std::min(best, nic->network()->model().latency);
  }
  if (best != kUnreachable) return best;
  std::shared_ptr<const Route> route = resolve_route(*ha, b);
  return route != nullptr ? route->latency : kUnreachable;
}

void World::forward_hop(std::shared_ptr<const Route> route, std::size_t i, Packet packet) {
  const RouteHop& hop = route->hops[i];
  Nic* tx = hop.tx;
  Node* node = tx->node();
  Network* net = hop.net;
  // The route was valid when resolved; re-check at forward time — the
  // router, its egress NIC or the link may have died while the packet was
  // in flight (§6's route-switching scenario: the transport's retransmit
  // re-resolves against the bumped epoch and fails over).
  if (!node->up() || !tx->up() || !net->up()) {
    net->stats().drops_down++;
    return;
  }
  SimTime arrival = tx->transmit(packet.payload.size());
  if (!net->carry(packet.payload.size(), node->rng())) return;
  packet.network = net->name();
  judge_and_post(net, node->name(), arrival, std::move(packet), route->dst, route, i + 1);
}

void World::judge_and_post(Network* net, const std::string& lane, SimTime arrival,
                           Packet packet, Host* target,
                           const std::shared_ptr<const Route>& route, std::size_t next) {
  auto post = [&](SimTime when, Packet p) {
    if (route != nullptr && next < route->hops.size())
      post_hop(route, next, when, std::move(p));
    else
      post_delivery(net, target, when, std::move(p));
  };
  // `lane` is the transmitting node: the sending host on the first hop, the
  // forwarding router on interior hops, so every injector lane stays
  // confined to one shard's thread.  Partition boundaries are judged on
  // the packet's end-to-end (src, dst) pair regardless of the lane.
  if (FaultInjector* fault = net->fault()) {
    FaultVerdict v = fault->judge(lane, packet.src.host, packet.dst.host);
    if (v.drop) {
      net->stats().drops_fault++;
      return;
    }
    if (v.corrupt) {
      fault->corrupt_payload(packet.payload, lane);
      net->stats().fault_corruptions++;
    }
    if (v.copies > 1) {
      net->stats().fault_duplicates += static_cast<std::uint64_t>(v.copies - 1);
      // The duplicate is posted first: at equal arrival times post order
      // decides delivery order.
      post(arrival + v.extra_delay + v.dup_delay, packet);
    }
    arrival += v.extra_delay;
  }
  post(arrival, std::move(packet));
}

void World::post_hop(std::shared_ptr<const Route> route, std::size_t i, SimTime when,
                     Packet packet) {
  Node* node = route->hops[i].tx->node();
  Engine* engine = &node->engine();
  post_event(node->shard(), engine, when,
             [this, route = std::move(route), i, packet = std::move(packet)]() mutable {
               forward_hop(std::move(route), i, std::move(packet));
             });
}

void World::post_event(std::size_t shard, Engine* engine, SimTime arrival, EventFn fn) {
  int src = t_current_shard;
  if (src < 0 || static_cast<std::size_t>(src) == shard) {
    // Same shard, or the coordinator between windows: straight onto the
    // target's engine — the classic path.  A coordinator-initiated send can
    // race the destination clock (its shard may have simulated past the
    // arrival already), so it lands no earlier than the target's now.
    engine->schedule_at(std::max(arrival, engine->now()), std::move(fn));
    return;
  }
  // Cross-shard: park it in the mailbox until the window barrier.  The
  // conservative window guarantees arrival >= the window end, so the
  // destination has not simulated past it.
  auto s = static_cast<std::size_t>(src);
  mail_[s][shard].push_back(MailItem{arrival, mail_seq_[s]++, engine, std::move(fn)});
}

void World::post_delivery(Network* net, Host* target, SimTime arrival, Packet packet) {
  post_event(target->shard(), &target->engine(), arrival,
             [target, net, packet = std::move(packet)]() mutable {
               target->deliver(std::move(packet), net);
             });
}

void World::drain_mailboxes() {
  struct Entry {
    std::size_t src;
    MailItem item;
  };
  std::size_t total = 0;
  for (auto& row : mail_)
    for (auto& cell : row) total += cell.size();
  if (total == 0) return;
  std::vector<Entry> entries;
  entries.reserve(total);
  for (std::size_t s = 0; s < mail_.size(); ++s)
    for (auto& cell : mail_[s]) {
      for (auto& item : cell) entries.push_back(Entry{s, std::move(item)});
      cell.clear();
    }
  // Deterministic insertion order: arrival time, then source shard, then
  // the source's posting sequence.  Engine sequence numbers then preserve
  // this order among equal-time deliveries, so the destination sees the
  // same equal-time ordering for every shard count that keeps the sources
  // on distinct shards.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.item.arrival != b.item.arrival) return a.item.arrival < b.item.arrival;
    if (a.src != b.src) return a.src < b.src;
    return a.item.seq < b.item.seq;
  });
  run_stats_.cross_shard_packets += total;
  for (Entry& e : entries) {
    assert(e.item.arrival >= e.item.engine->now() && "conservative window violated");
    e.item.engine->schedule_at(e.item.arrival, std::move(e.item.fn));
  }
}

SimTime World::compute_lookahead() const {
  SimTime la = Engine::kNever;
  for (const auto& [name, net] : networks_) {
    bool cross = false;
    std::size_t first_shard = 0;
    bool seen = false;
    for (const Nic* nic : net->nics()) {
      std::size_t s = nic->node()->shard();
      if (!seen) {
        first_shard = s;
        seen = true;
      } else if (s != first_shard) {
        cross = true;
        break;
      }
    }
    if (cross) la = std::min(la, net->model().latency);
  }
  // A zero-latency cross-shard link would make windows empty; clamp to one
  // tick (such a link also voids the conservative guarantee — see
  // DESIGN.md §sharded-engine).
  return std::max<SimTime>(la, 1);
}

void World::ensure_workers() {
  if (engines_.size() == 1 || !workers_.empty()) return;
  workers_.reserve(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void World::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  quit_ = false;
}

void World::worker_main(std::size_t shard) {
  Engine* eng = engines_[shard].get();
  // For this thread's whole life: trace/log clock reads this shard's
  // engine, and deliveries posted from here route through post_event's
  // shard-aware path.
  Engine::ThreadTimeScope scope(eng);
  t_current_shard = static_cast<int>(shard);
  std::uint64_t seen = 0;
  while (true) {
    SimTime end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return quit_ || window_gen_ != seen; });
      if (quit_) return;
      seen = window_gen_;
      end = window_end_;
    }
    std::uint64_t c0 = thread_cpu_ns();
    eng->run_before(end, /*weak_too=*/true);
    std::uint64_t c1 = thread_cpu_ns();
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard_busy_ns_[shard] = c1 - c0;
      if (++done_ == engines_.size()) cv_done_.notify_one();
    }
  }
}

void World::run_windows(SimTime horizon, bool stop_when_strong_drained) {
  ensure_workers();
  lookahead_ = compute_lookahead();
  const std::size_t n = engines_.size();
  while (true) {
    if (stop_when_strong_drained) {
      std::size_t strong = ctrl_->strong_pending();
      for (auto& e : engines_) strong += e->strong_pending();
      if (strong == 0) break;
    }
    SimTime ctrl_next = ctrl_->next_event_time();
    SimTime s = ctrl_next;
    for (auto& e : engines_) s = std::min(s, e->next_event_time());
    if (s == Engine::kNever || s > horizon) break;
    if (ctrl_next == s) {
      // Control actions at time s run first, on this thread, with every
      // worker idle: they may touch any host or network safely, and
      // whatever they schedule at s is picked up when the loop recomputes.
      Engine::ThreadTimeScope scope(ctrl_);
      ctrl_->run_before(sat_add(s, 1), /*weak_too=*/true);
      continue;
    }
    // Conservative window [s, e): nothing can cross shards into it.
    SimTime e = std::min({sat_add(s, lookahead_), ctrl_next, sat_add(horizon, 1)});
    {
      std::unique_lock<std::mutex> lock(mu_);
      window_end_ = e;
      done_ = 0;
      ++window_gen_;
      cv_work_.notify_all();
      cv_done_.wait(lock, [&] { return done_ == n; });
    }
    // Workers are idle again; the barrier above is the happens-before edge
    // that publishes their window's writes (mailboxes, busy times, host
    // state) to this thread.
    drain_mailboxes();
    ++run_stats_.windows;
    std::uint64_t wmax = 0;
    for (std::uint64_t b : shard_busy_ns_) {
      wmax = std::max(wmax, b);
      run_stats_.busy_ns += b;
    }
    run_stats_.critical_path_ns += wmax;
  }
}

void World::run_until(SimTime t) {
  if (engines_.size() == 1) {
    engines_[0]->run_until(t);
    return;
  }
  run_windows(t, /*stop_when_strong_drained=*/false);
  for (auto& e : engines_) e->advance_to(t);
  ctrl_->advance_to(t);
}

std::size_t World::run_all() {
  std::uint64_t before = events_run();
  if (engines_.size() == 1) {
    engines_[0]->run();
  } else {
    run_windows(Engine::kNever, /*stop_when_strong_drained=*/true);
  }
  return static_cast<std::size_t>(events_run() - before);
}

std::uint64_t World::events_run() const {
  std::uint64_t total = ctrl_engine_ ? ctrl_engine_->events_run() : 0;
  for (const auto& e : engines_) total += e->events_run();
  return total;
}

}  // namespace snipe::simnet
