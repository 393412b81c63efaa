#include "files/fileserver.hpp"

#include <algorithm>
#include <limits>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "util/uri.hpp"

namespace snipe::files {

namespace {
std::string content_hash(const Bytes& content) {
  return crypto::digest_hex(crypto::sha256(content));
}

/// Merges [offset, end) into the coverage map and returns the number of
/// *newly* covered bytes (overlap with existing extents counts zero, so a
/// re-sent chunk is idempotent).
std::uint64_t add_extent(std::map<std::uint64_t, std::uint64_t>& extents,
                         std::uint64_t offset, std::uint64_t end) {
  if (end <= offset) return 0;
  std::uint64_t fresh = end - offset;
  // Absorb every extent that overlaps or abuts [offset, end).
  auto it = extents.upper_bound(offset);
  if (it != extents.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= offset) it = prev;
  }
  while (it != extents.end() && it->first <= end) {
    std::uint64_t lo = std::min(offset, it->first);
    std::uint64_t hi = std::max(end, it->second);
    fresh -= std::min(end, it->second) - std::max(offset, it->first);
    offset = lo;
    end = hi;
    it = extents.erase(it);
  }
  extents[offset] = end;
  return fresh;
}
}  // namespace

FileServer::FileServer(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
                       std::uint16_t port, FileServerConfig config)
    : rpc_(host, port, {}),
      engine_(host.engine()),
      config_(config),
      rc_(rpc_, std::move(rc_replicas)),
      log_("files@" + host.name() + ":" + std::to_string(rpc_.address().port)) {
  rpc_.serve(tags::kStore, [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
    ByteReader r(body);
    auto lifn = r.str();
    if (!lifn) return lifn.error();
    auto content = r.blob();
    if (!content) return content.error();
    store_local(lifn.value(), std::move(content).take());
    return Bytes{};
  });

  rpc_.serve(tags::kFetch, [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
    ByteReader r(body);
    auto lifn = r.str();
    if (!lifn) return lifn.error();
    auto it = store_.find(lifn.value());
    if (it == store_.end()) return Result<Bytes>(Errc::not_found, lifn.value());
    ++stats_.fetches;
    bytes_served_->inc(it->second.size());
    ByteWriter w;
    w.blob(it->second);
    return std::move(w).take();
  });

  rpc_.serve(tags::kOpenSink,
             [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
               ByteReader r(body);
               auto lifn = r.str();
               auto total = r.u64();
               auto stripes = r.u32();
               if (!lifn || !total || !stripes)
                 return Error{Errc::corrupt, "bad open-sink request"};
               std::uint64_t id = next_sink_id_++;
               Sink sink;
               sink.lifn = lifn.value();
               sink.total = total.value();
               sink.stripes = std::max<std::uint32_t>(1, stripes.value());
               sink.data = Bytes(total.value(), 0);
               sink.last_activity = engine_.now();
               sinks_[id] = std::move(sink);
               ++stats_.sink_sessions;
               ByteWriter w;
               w.u64(id);
               return std::move(w).take();
             });

  rpc_.on_notify(tags::kSinkData, [this](const simnet::Address&, const Bytes& body) {
    ByteReader r(body);
    auto id = r.u64();
    auto offset = r.u64();
    auto chunk = r.blob();
    if (!id || !offset || !chunk) return;
    auto it = sinks_.find(id.value());
    if (it == sinks_.end()) return;
    Sink& sink = it->second;
    std::uint64_t end = offset.value() + chunk.value().size();
    if (end > sink.total) {
      log_.warn("sink ", id.value(), ": chunk [", offset.value(), ", ", end,
                ") exceeds declared size ", sink.total);
      return;
    }
    // Still inside srudp's delivery handler: link the chunk ingest into the
    // carrying message's flow so `trace <id>` shows where the bytes landed.
    auto& tracer = obs::Tracer::global();
    if (tracer.flow_enabled() && rpc_.srudp().last_delivered_flow() != 0)
      tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "files.sink_chunk_rx",
                  rpc_.srudp().last_delivered_flow(),
                  {{"lifn", sink.lifn},
                   {"offset", std::to_string(offset.value())},
                   {"bytes", std::to_string(chunk.value().size())}});
    std::copy(chunk.value().begin(), chunk.value().end(),
              sink.data.begin() + static_cast<std::ptrdiff_t>(offset.value()));
    sink.covered += add_extent(sink.extents, offset.value(), end);
    sink.last_activity = engine_.now();
  });

  rpc_.serve(tags::kCloseSink,
             [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
               ByteReader r(body);
               auto id = r.u64();
               if (!id) return id.error();
               auto it = sinks_.find(id.value());
               if (it == sinks_.end())
                 return Result<Bytes>(Errc::not_found, "no such sink");
               Sink& sink = it->second;
               if (sink.covered != sink.total) {
                 ++stats_.sinks_incomplete;
                 std::string detail = "incomplete sink " + sink.lifn + ": " +
                                      std::to_string(sink.covered) + "/" +
                                      std::to_string(sink.total) + " bytes";
                 sinks_.erase(it);
                 return Result<Bytes>(Errc::state_error, std::move(detail));
               }
               store_local(sink.lifn, std::move(sink.data));
               sinks_.erase(it);
               return Bytes{};
             });

  rpc_.serve(tags::kOpenSource,
             [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
               ByteReader r(body);
               auto lifn = r.str();
               auto dst_host = r.str();
               auto dst_port = r.u16();
               auto read_id = r.u64();
               auto stripe_index = r.u32();
               auto stripe_count = r.u32();
               auto chunk_size = r.u64();
               if (!lifn || !dst_host || !dst_port || !read_id || !stripe_index ||
                   !stripe_count || !chunk_size)
                 return Error{Errc::corrupt, "bad open-source request"};
               const std::uint32_t stripes = std::max<std::uint32_t>(1, stripe_count.value());
               if (stripe_index.value() >= stripes)
                 return Error{Errc::invalid_argument, "stripe index out of range"};
               auto it = store_.find(lifn.value());
               if (it == store_.end()) return Result<Bytes>(Errc::not_found, lifn.value());
               ++stats_.source_sessions;
               // Stream this stripe's chunks — indices congruent to the
               // stripe modulo the stripe count — as offset-stamped one-way
               // SNIPE messages.
               const Bytes& content = it->second;
               simnet::Address dst{dst_host.value(), dst_port.value()};
               const std::uint64_t total = content.size();
               const std::uint64_t chunk =
                   chunk_size.value() != 0 ? chunk_size.value() : config_.chunk;
               std::uint64_t stripe_bytes = 0;
               auto& tracer = obs::Tracer::global();
               for (std::uint64_t ci = stripe_index.value(); ci * chunk < total;
                    ci += stripes) {
                 std::uint64_t offset = ci * chunk;
                 std::uint64_t n = std::min<std::uint64_t>(chunk, total - offset);
                 ByteWriter w;
                 w.u64(read_id.value());
                 w.u64(total);
                 w.u64(offset);
                 w.blob(Bytes(content.begin() + static_cast<std::ptrdiff_t>(offset),
                              content.begin() + static_cast<std::ptrdiff_t>(offset + n)));
                 std::uint64_t flow = rpc_.notify(dst, tags::kSourceData, std::move(w).take());
                 if (tracer.flow_enabled())
                   tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "files.source_chunk",
                               flow,
                               {{"lifn", lifn.value()},
                                {"stripe", std::to_string(stripe_index.value())},
                                {"offset", std::to_string(offset)},
                                {"bytes", std::to_string(n)}});
                 stripe_bytes += n;
               }
               bytes_served_->inc(stripe_bytes);
               ByteWriter w;
               w.u64(total);
               w.u64(stripe_bytes);
               return std::move(w).take();
             });

  rpc_.serve(tags::kReplicate,
             [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
               ByteReader r(body);
               auto lifn = r.str();
               if (!lifn) return lifn.error();
               auto content = r.blob();
               if (!content) return content.error();
               ++stats_.replicas_received;
               if (!store_.count(lifn.value())) store_[lifn.value()] = content.value();
               // (Re-)announce unconditionally: a repair push may follow a
               // crash that retracted our registration while the bytes
               // survived on disk.
               announce(lifn.value(), store_[lifn.value()]);
               return Bytes{};
             });

  if (config_.repair_period > 0)
    engine_.schedule_weak(config_.repair_period, [this] { repair_tick(); });
  if (config_.sink_ttl > 0)
    engine_.schedule_weak(std::max<SimDuration>(config_.sink_ttl / 2, 1),
                          [this] { sink_sweep(); });

  rpc_.serve(tags::kDelete, [this](const simnet::Address&, const Bytes& body) -> Result<Bytes> {
    ByteReader r(body);
    auto lifn = r.str();
    if (!lifn) return lifn.error();
    if (store_.erase(lifn.value()) == 0)
      return Result<Bytes>(Errc::not_found, lifn.value());
    rc_.remove(lifn.value(), rcds::names::kLifnLocation, location_url(), [](Result<void>) {});
    return Bytes{};
  });

  bytes_served_ = &obs::MetricsRegistry::global().counter("files.bytes_served");
  metrics_sources_.add("files.stores", [this] { return stats_.stores; });
  metrics_sources_.add("files.fetches", [this] { return stats_.fetches; });
  metrics_sources_.add("files.sink_sessions", [this] { return stats_.sink_sessions; });
  metrics_sources_.add("files.source_sessions", [this] { return stats_.source_sessions; });
  metrics_sources_.add("files.replicas_pushed", [this] { return stats_.replicas_pushed; });
  metrics_sources_.add("files.replicas_received",
                       [this] { return stats_.replicas_received; });
  metrics_sources_.add("files.repairs", [this] { return stats_.repairs; });
  metrics_sources_.add("files.bytes_stored", [this] { return stats_.bytes_stored; });
  metrics_sources_.add("files.sinks_expired", [this] { return stats_.sinks_expired; });
  metrics_sources_.add("files.sinks_incomplete",
                       [this] { return stats_.sinks_incomplete; });
}

std::string FileServer::location_url() const {
  return "snipe://" + address().host + ":" + std::to_string(address().port) + "/files";
}

Result<Bytes> FileServer::read(const std::string& lifn) const {
  auto it = store_.find(lifn);
  if (it == store_.end()) return Result<Bytes>(Errc::not_found, lifn);
  return it->second;
}

void FileServer::store_local(const std::string& lifn, Bytes content, bool announce_it) {
  ++stats_.stores;
  auto it = store_.find(lifn);
  if (it != store_.end()) stats_.bytes_stored -= it->second.size();
  stats_.bytes_stored += content.size();
  store_[lifn] = std::move(content);
  if (announce_it) {
    announce(lifn, store_[lifn]);
    replicate(lifn);
  }
}

void FileServer::announce(const std::string& lifn, const Bytes& content) {
  rc_.apply(lifn,
            {rcds::op_add(rcds::names::kLifnLocation, location_url()),
             rcds::op_set(rcds::names::kLifnHash, content_hash(content))},
            [this, lifn](Result<std::vector<rcds::Assertion>> r) {
              if (!r) log_.warn("failed to announce ", lifn, ": ", r.error().to_string());
            });
}

void FileServer::sink_sweep() {
  engine_.schedule_weak(std::max<SimDuration>(config_.sink_ttl / 2, 1),
                        [this] { sink_sweep(); });
  SimTime now = engine_.now();
  for (auto it = sinks_.begin(); it != sinks_.end();) {
    Sink& sink = it->second;
    if (now - sink.last_activity < config_.sink_ttl) {
      ++it;
      continue;
    }
    ++stats_.sinks_expired;
    obs::FlightRecorder::global().record(
        rpc_.host().name(), "files", "sink_expired",
        "lifn=" + sink.lifn + " id=" + std::to_string(it->first) + " covered=" +
            std::to_string(sink.covered) + "/" + std::to_string(sink.total));
    log_.debug("expiring idle sink ", it->first, " (", sink.lifn, ")");
    it = sinks_.erase(it);
  }
}

void FileServer::repair_tick() {
  engine_.schedule_weak(config_.repair_period, [this] { repair_tick(); });
  if (!rpc_.host().up()) return;
  if (config_.replication_factor <= 1 || peers_.empty()) return;
  for (const auto& [lifn, content] : store_) repair_file(lifn);
}

void FileServer::repair_file(const std::string& lifn) {
  // Count *live* registered replicas; push fresh copies if below target.
  // Liveness here reads simulator state directly — a stand-in for the
  // health probe a production replication daemon would send; the protocol
  // consequences (retraction + re-push) are what matter.
  rc_.lookup(lifn, rcds::names::kLifnLocation,
             [this, lifn](Result<std::vector<std::string>> r) {
               if (!r) return;
               int live = 0;
               std::set<std::string> live_urls;
               simnet::World* world = rpc_.host().world();
               for (const auto& url : r.value()) {
                 auto uri = snipe::parse_uri(url);
                 if (!uri) continue;
                 simnet::Host* h = world->host(uri.value().host);
                 if (h != nullptr && h->up()) {
                   ++live;
                   live_urls.insert(url);
                 } else {
                   // Retract the dead replica's registration so readers
                   // stop trying it ("deleting replicas ... according to
                   // local policy", §3.2).
                   rc_.remove(lifn, rcds::names::kLifnLocation, url, [](Result<void>) {});
                 }
               }
               if (live >= config_.replication_factor) return;
               auto it = store_.find(lifn);
               if (it == store_.end()) return;
               log_.debug("repairing ", lifn, ": ", live, "/",
                          config_.replication_factor, " live replicas");
               ByteWriter w;
               w.str(lifn);
               w.blob(it->second);
               Bytes body = std::move(w).take();
               int needed = config_.replication_factor - live;
               for (const auto& peer : peers_) {
                 if (needed <= 0) break;
                 // A peer that is already a live registered replica gains
                 // nothing from another copy — pushing to it every tick is
                 // repair churn with no replica-count progress.
                 std::string peer_url = "snipe://" + peer.host + ":" +
                                        std::to_string(peer.port) + "/files";
                 if (live_urls.count(peer_url)) continue;
                 simnet::Host* peer_host = world->host(peer.host);
                 if (peer_host == nullptr || !peer_host->up()) continue;
                 ++stats_.repairs;
                 --needed;
                 std::uint64_t flow =
                     rpc_.call(peer, tags::kReplicate, body, [](Result<Bytes>) {});
                 auto& tracer = obs::Tracer::global();
                 if (tracer.flow_enabled())
                   tracer.flow(obs::TraceEvent::Phase::flow_step, "flow",
                               "files.repair_push", flow,
                               {{"lifn", lifn}, {"peer", peer.to_string()}});
               }
             });
}

void FileServer::replicate(const std::string& lifn) {
  int copies_needed = config_.replication_factor - 1;
  if (copies_needed <= 0 || peers_.empty()) return;
  auto it = store_.find(lifn);
  if (it == store_.end()) return;
  ByteWriter w;
  w.str(lifn);
  w.blob(it->second);
  Bytes body = std::move(w).take();
  auto& tracer = obs::Tracer::global();
  for (int i = 0; i < copies_needed && i < static_cast<int>(peers_.size()); ++i) {
    ++stats_.replicas_pushed;
    std::uint64_t flow =
        rpc_.call(peers_[i], tags::kReplicate, body, [this, lifn](Result<Bytes> r) {
          if (!r) log_.warn("replication of ", lifn, " failed: ", r.error().to_string());
        });
    if (tracer.flow_enabled())
      tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "files.replicate_push", flow,
                  {{"lifn", lifn}, {"peer", peers_[i].to_string()}});
  }
}

// ---------- FileClient ----------

FileClient::FileClient(transport::RpcEndpoint& rpc, std::vector<simnet::Address> rc_replicas,
                       FileClientConfig config)
    : rpc_(rpc),
      rc_(rpc, std::move(rc_replicas)),
      config_(config),
      log_("fileclient@" + rpc.host().name()) {
  if (config_.stripes == 0) config_.stripes = 1;
  if (config_.chunk == 0) config_.chunk = 64 * 1024;
  rpc_.on_notify(files::tags::kSourceData, [this, alive = std::weak_ptr<char>(alive_)](
                                               const simnet::Address&, const Bytes& body) {
    if (alive.expired()) return;  // endpoint outlived this client
    ByteReader r(body);
    auto id = r.u64();
    auto total = r.u64();
    auto offset = r.u64();
    auto chunk = r.blob();
    if (!id || !total || !offset || !chunk) return;
    auto it = reads_.find(id.value());
    if (it == reads_.end()) return;
    PendingRead& read = it->second;
    auto& tracer = obs::Tracer::global();
    if (tracer.flow_enabled() && rpc_.srudp().last_delivered_flow() != 0)
      tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "files.source_chunk_rx",
                  rpc_.srudp().last_delivered_flow(),
                  {{"lifn", read.lifn},
                   {"offset", std::to_string(offset.value())},
                   {"bytes", std::to_string(chunk.value().size())}});
    if (!read.total_known) {
      read.total = total.value();
      on_total_known(read);
    }
    const std::uint64_t end = offset.value() + chunk.value().size();
    if (end > read.total || chunk.value().empty()) return;
    const std::uint64_t ci = offset.value() / config_.chunk;
    const std::uint32_t s = static_cast<std::uint32_t>(ci % read.stripes.size());
    Stripe& stripe = read.stripes[s];
    stripe.last_progress = rpc_.engine().now();
    if (read.chunks_have.insert(offset.value()).second) {
      std::copy(chunk.value().begin(), chunk.value().end(),
                read.data.begin() + static_cast<std::ptrdiff_t>(offset.value()));
      read.bytes_have += chunk.value().size();
      stripe.received += chunk.value().size();
    }
    if (!stripe.done && stripe.received >= stripe.expected) note_stripe_done(read, stripe);
    if (read.bytes_have >= read.total) finish_read(id.value(), std::move(read.data));
  });
}

FileClient::~FileClient() {
  for (auto& [id, read] : reads_)
    for (auto& s : read.stripes) rpc_.engine().cancel(s.timer);
}

void FileClient::write(const simnet::Address& server, const std::string& lifn, Bytes content,
                       DoneHandler done) {
  ByteWriter open;
  open.str(lifn);
  open.u64(content.size());
  open.u32(config_.stripes);
  rpc_.call(server, tags::kOpenSink, std::move(open).take(),
            [this, alive = std::weak_ptr<char>(alive_), server,
             content = std::move(content), done = std::move(done)](Result<Bytes> r) mutable {
              if (alive.expired()) {
                done(Error{Errc::cancelled, "file client destroyed"});
                return;
              }
              if (!r) {
                done(r.error());
                return;
              }
              ByteReader rr(r.value());
              auto id = rr.u64();
              if (!id) {
                done(id.error());
                return;
              }
              // Stream the content as offset-stamped SNIPE messages to the
              // sink (§5.9), one stripe's chunk sequence at a time.  The
              // offsets make the order irrelevant and let kCloseSink verify
              // completeness before storing.
              auto& tracer = obs::Tracer::global();
              const std::uint64_t total = content.size();
              const std::uint64_t chunk = config_.chunk;
              for (std::uint32_t s = 0; s < config_.stripes; ++s) {
                for (std::uint64_t ci = s; ci * chunk < total; ci += config_.stripes) {
                  std::uint64_t offset = ci * chunk;
                  std::uint64_t n = std::min<std::uint64_t>(chunk, total - offset);
                  ByteWriter w;
                  w.u64(id.value());
                  w.u64(offset);
                  w.blob(Bytes(content.begin() + static_cast<std::ptrdiff_t>(offset),
                               content.begin() + static_cast<std::ptrdiff_t>(offset + n)));
                  std::uint64_t flow =
                      rpc_.notify(server, tags::kSinkData, std::move(w).take());
                  if (tracer.flow_enabled())
                    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow",
                                "files.sink_chunk", flow,
                                {{"sink", std::to_string(id.value())},
                                 {"stripe", std::to_string(s)},
                                 {"offset", std::to_string(offset)},
                                 {"bytes", std::to_string(n)}});
                }
              }
              ByteWriter close;
              close.u64(id.value());
              rpc_.call(server, tags::kCloseSink, std::move(close).take(),
                        [done = std::move(done)](Result<Bytes> r2) {
                          if (!r2)
                            done(r2.error());
                          else
                            done(ok_result());
                        });
            });
}

std::vector<simnet::Address> FileClient::rank_candidates(
    std::vector<simnet::Address> servers) const {
  simnet::World* world = rpc_.host().world();
  const std::string& me = rpc_.host().name();
  auto failures = [this](const simnet::Address& a) {
    auto it = host_failures_.find(a.host);
    return it == host_failures_.end() ? 0 : it->second;
  };
  std::stable_sort(servers.begin(), servers.end(),
                   [&](const simnet::Address& a, const simnet::Address& b) {
                     int fa = failures(a), fb = failures(b);
                     if (fa != fb) return fa < fb;
                     return world->net_distance(me, a.host) < world->net_distance(me, b.host);
                   });
  return servers;
}

void FileClient::read(const std::string& lifn, ReadHandler done) {
  rc_.get(lifn, [this, alive = std::weak_ptr<char>(alive_), lifn, done = std::move(done)](
                    Result<std::vector<rcds::Assertion>> r) mutable {
    if (alive.expired()) {
      done(Error{Errc::cancelled, "file client destroyed"});
      return;
    }
    if (!r) {
      done(r.error());
      return;
    }
    std::vector<simnet::Address> locations;
    std::string hash;
    for (const auto& a : r.value()) {
      if (a.name == rcds::names::kLifnLocation) {
        if (auto uri = snipe::parse_uri(a.value); uri.ok())
          locations.push_back(simnet::Address{
              uri.value().host, static_cast<std::uint16_t>(uri.value().port)});
      } else if (a.name == rcds::names::kLifnHash) {
        hash = a.value;
      }
    }
    if (locations.empty()) {
      done(Error{Errc::not_found, "no replicas registered for " + lifn});
      return;
    }
    std::uint64_t id = next_read_id_++;
    PendingRead read;
    read.lifn = lifn;
    read.expect_hash = hash;
    read.done = std::move(done);
    read.candidates = rank_candidates(std::move(locations));
    read.stripes.resize(config_.stripes);
    for (std::uint32_t s = 0; s < config_.stripes; ++s) {
      read.stripes[s].index = s;
      read.stripes[s].candidate = s % read.candidates.size();
    }
    reads_[id] = std::move(read);
    for (std::uint32_t s = 0; s < config_.stripes; ++s) open_stripe(id, s);
  });
}

int FileClient::attempt_budget(const PendingRead& read) const {
  if (config_.max_attempts > 0) return config_.max_attempts;
  return static_cast<int>(read.candidates.size()) * 2 + 1;
}

void FileClient::open_stripe(std::uint64_t read_id, std::uint32_t stripe) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead& read = it->second;
  Stripe& st = read.stripes[stripe];
  const simnet::Address server = read.candidates[st.candidate];
  ++st.attempts;
  const int attempt = st.attempts;
  const SimTime now = rpc_.engine().now();
  st.opened_at = now;
  st.last_progress = now;
  obs::MetricsRegistry::global().counter("files.stripe_opens").inc();
  ByteWriter w;
  w.str(read.lifn);
  w.str(rpc_.address().host);
  w.u16(rpc_.address().port);
  w.u64(read_id);
  w.u32(stripe);
  w.u32(static_cast<std::uint32_t>(read.stripes.size()));
  w.u64(config_.chunk);
  std::uint64_t flow = rpc_.call(
      server, tags::kOpenSource, std::move(w).take(),
      [this, alive = std::weak_ptr<char>(alive_), read_id, stripe,
       attempt](Result<Bytes> r) {
        if (alive.expired()) return;
        auto rit = reads_.find(read_id);
        if (rit == reads_.end()) return;
        PendingRead& read = rit->second;
        Stripe& st = read.stripes[stripe];
        if (st.done || st.attempts != attempt) return;  // superseded
        if (!r) {
          ++host_failures_[read.candidates[st.candidate].host];
          log_.debug("stripe ", stripe, " of ", read.lifn, " open failed at ",
                     read.candidates[st.candidate].to_string(), ": ",
                     r.error().to_string());
          reissue_stripe(read_id, stripe, "open_failed");
          return;
        }
        ByteReader rr(r.value());
        auto total = rr.u64();
        if (!total) return;
        st.last_progress = rpc_.engine().now();
        if (!read.total_known) {
          read.total = total.value();
          on_total_known(read);
        }
        // A stripe that owns no bytes (or an empty file) completes on the
        // open response alone; chunks, when there are any, were queued
        // ahead of this response and have usually landed already.
        if (!st.done && st.received >= st.expected) note_stripe_done(read, st);
        if (read.bytes_have >= read.total) finish_read(read_id, std::move(read.data));
      },
      config_.open_timeout);
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled())
    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "files.stripe_open", flow,
                {{"lifn", read.lifn},
                 {"stripe", std::to_string(stripe)},
                 {"replica", server.to_string()},
                 {"attempt", std::to_string(attempt)}});
  arm_stripe_timer(read_id, stripe);
}

void FileClient::arm_stripe_timer(std::uint64_t read_id, std::uint32_t stripe) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  Stripe& st = it->second.stripes[stripe];
  rpc_.engine().cancel(st.timer);
  st.timer = rpc_.engine().schedule(config_.stripe_stall, [this, read_id, stripe] {
    auto rit = reads_.find(read_id);
    if (rit == reads_.end()) return;
    PendingRead& read = rit->second;
    Stripe& st = read.stripes[stripe];
    st.timer = simnet::TimerId{};
    if (st.done) return;
    const SimTime now = rpc_.engine().now();
    const SimDuration idle = now - st.last_progress;
    if (idle < config_.stripe_stall) {
      // Progress since the timer was armed: wait out the remainder.
      st.timer = rpc_.engine().schedule(
          config_.stripe_stall - idle,
          [this, read_id, stripe] { arm_stripe_timer(read_id, stripe); });
      return;
    }
    const std::string replica = read.candidates[st.candidate].to_string();
    ++host_failures_[read.candidates[st.candidate].host];
    obs::MetricsRegistry::global().counter("files.stripe_stalls").inc();
    obs::FlightRecorder::global().record(
        rpc_.host().name(), "files", "stripe_stall",
        "lifn=" + read.lifn + " stripe=" + std::to_string(stripe) + " replica=" + replica +
            " got=" + std::to_string(st.received) + "/" + std::to_string(st.expected));
    log_.debug("stripe ", stripe, " of ", read.lifn, " stalled at ", replica);
    reissue_stripe(read_id, stripe, "stall");
  });
}

void FileClient::reissue_stripe(std::uint64_t read_id, std::uint32_t stripe,
                                const char* why) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead& read = it->second;
  Stripe& st = read.stripes[stripe];
  if (st.done) return;
  rpc_.engine().cancel(st.timer);
  st.timer = simnet::TimerId{};
  if (st.attempts >= attempt_budget(read)) {
    finish_read(read_id,
                Error{Errc::unreachable, "stripe " + std::to_string(stripe) + " of " +
                                             read.lifn + " unrecoverable (" + why + ")"});
    return;
  }
  // Next-best replica: fewest observed failures, ranked order breaking
  // ties, avoiding the one that just failed when there is a choice.
  auto failures = [this](const simnet::Address& a) {
    auto fit = host_failures_.find(a.host);
    return fit == host_failures_.end() ? 0 : fit->second;
  };
  std::size_t best = st.candidate;
  int best_score = std::numeric_limits<int>::max();
  for (std::size_t j = 0; j < read.candidates.size(); ++j) {
    if (j == st.candidate && read.candidates.size() > 1) continue;
    int score = failures(read.candidates[j]);
    if (score < best_score) {
      best_score = score;
      best = j;
    }
  }
  st.candidate = best;
  obs::MetricsRegistry::global().counter("files.stripe_reissues").inc();
  obs::FlightRecorder::global().record(
      rpc_.host().name(), "files", "stripe_reissue",
      "lifn=" + read.lifn + " stripe=" + std::to_string(stripe) + " to=" +
          read.candidates[best].to_string() + " attempt=" + std::to_string(st.attempts + 1) +
          " why=" + why);
  open_stripe(read_id, stripe);
}

void FileClient::on_total_known(PendingRead& read) {
  read.total_known = true;
  read.data.resize(read.total);
  const std::uint64_t chunk = config_.chunk;
  const std::size_t k = read.stripes.size();
  for (std::uint64_t ci = 0; ci * chunk < read.total; ++ci) {
    std::uint64_t n = std::min<std::uint64_t>(chunk, read.total - ci * chunk);
    read.stripes[ci % k].expected += n;
  }
}

void FileClient::note_stripe_done(PendingRead& read, Stripe& s) {
  s.done = true;
  rpc_.engine().cancel(s.timer);
  s.timer = simnet::TimerId{};
  obs::MetricsRegistry::global()
      .histogram("files.stripe_ms")
      .observe(static_cast<double>(rpc_.engine().now() - s.opened_at) / 1e6);
  // The serving replica finished a stripe: decay its failure score so a
  // healed host climbs back up the ranking.
  auto it = host_failures_.find(read.candidates[s.candidate].host);
  if (it != host_failures_.end()) it->second /= 2;
}

void FileClient::finish_read(std::uint64_t read_id, Result<Bytes> result) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead read = std::move(it->second);
  for (auto& s : read.stripes) rpc_.engine().cancel(s.timer);
  reads_.erase(it);
  if (result.ok() && !read.expect_hash.empty() &&
      content_hash(result.value()) != read.expect_hash) {
    read.done(Error{Errc::corrupt, "content hash mismatch"});
    return;
  }
  read.done(std::move(result));
}

}  // namespace snipe::files
