#include "transport/srudp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace snipe::transport {

namespace {
constexpr std::size_t kMinFragPayload = 256;

// Byte-at-a-time helpers for the per-message fragment bitmap walks.

/// The bits of bitmap byte `byte` that stand for fragments below `bits`.
std::uint8_t bits_below(std::uint32_t byte, std::uint32_t bits) {
  if (bits <= byte * 8) return 0;
  std::uint32_t n = bits - byte * 8;
  return n >= 8 ? 0xff : static_cast<std::uint8_t>((1u << n) - 1);
}

/// Byte `byte` of `bitmap`, fragments at or past `bits` cleared; bytes past
/// the bitmap's end read as zero, as bitmap_get does.
std::uint8_t bitmap_byte(const Bytes& bitmap, std::uint32_t byte, std::uint32_t bits) {
  return byte < bitmap.size() ? bitmap[byte] & bits_below(byte, bits) : 0;
}

/// Set bits of `bitmap` below `bits`.
std::uint32_t bitmap_count(const Bytes& bitmap, std::uint32_t bits) {
  std::uint32_t n = 0;
  for (std::uint32_t b = 0; b * 8 < bits; ++b) n += std::popcount(bitmap_byte(bitmap, b, bits));
  return n;
}
}  // namespace

SrudpEndpoint::SrudpEndpoint(simnet::Host& host, std::uint16_t port, SrudpConfig config)
    : host_(host),
      engine_(host.engine()),
      port_(port == 0 ? host.ephemeral_port() : port),
      config_(config),
      log_("srudp@" + host.name() + ":" + std::to_string(port_)) {
  // Fragment to the smallest MTU among all attached interfaces so a mid-
  // message route switch never produces an oversize datagram.
  std::size_t budget = 65535;
  for (const auto& nic : host_.nics())
    budget = std::min(budget, nic->network()->model().mtu);
  assert(!host_.nics().empty() && "SRUDP endpoint on an unattached host");
  // Clamp before subtracting: an MTU at or below the header size would
  // otherwise wrap the unsigned difference to a huge fragment budget.
  std::size_t header = config_.checksum ? kDataCkHeaderBytes : kDataHeaderBytes;
  frag_payload_ = std::max(kMinFragPayload, budget - std::min(budget, header));
  host_.bind(port_, [this](const simnet::Packet& p) { on_packet(p); }).value();

  auto& registry = obs::MetricsRegistry::global();
  rtt_ms_ = &registry.histogram("srudp.rtt_ms");
  delivery_ms_ = &registry.histogram("srudp.delivery_ms");
  metrics_sources_.add("srudp.messages_sent", [this] { return stats_.messages_sent.v; });
  metrics_sources_.add("srudp.messages_delivered",
                       [this] { return stats_.messages_delivered.v; });
  metrics_sources_.add("srudp.messages_expired",
                       [this] { return stats_.messages_expired.v; });
  metrics_sources_.add("srudp.messages_skipped",
                       [this] { return stats_.messages_skipped.v; });
  metrics_sources_.add("srudp.fragments_sent", [this] { return stats_.fragments_sent.v; });
  metrics_sources_.add("srudp.retransmits",
                       [this] { return stats_.fragments_retransmitted.v; });
  metrics_sources_.add("srudp.duplicate_fragments",
                       [this] { return stats_.duplicate_fragments.v; });
  metrics_sources_.add("srudp.status_sent", [this] { return stats_.status_sent.v; });
  metrics_sources_.add("srudp.rto_events", [this] { return stats_.rto_events.v; });
  metrics_sources_.add("srudp.bytes_delivered",
                       [this] { return stats_.bytes_delivered.v; });
  metrics_sources_.add("srudp.route_switches", [this] { return stats_.route_switches.v; });
  metrics_sources_.add("srudp.route_probes", [this] { return stats_.route_probes.v; });
  metrics_sources_.add("srudp.checksum_rejects",
                       [this] { return stats_.checksum_rejects.v; });
}

SrudpEndpoint::~SrudpEndpoint() {
  host_.unbind(port_);
  for (auto& [peer, out] : out_) engine_.cancel(out.rto_timer);
  for (auto& [peer, in] : in_) {
    engine_.cancel(in.hol_timer);
    for (auto& [id, msg] : in.partial) engine_.cancel(msg.status_timer);
  }
}

SrudpEndpoint::PeerOut& SrudpEndpoint::ensure_out(const simnet::Address& peer) {
  auto [it, inserted] = out_.try_emplace(peer);
  if (inserted)
    it->second.path =
        MultipathPolicy(config_.failover_threshold, config_.route_probe_quiet);
  return it->second;
}

void SrudpEndpoint::note_route_success(const simnet::Address& peer, PeerOut& out) {
  if (out.path.on_success(engine_.now())) {
    ++stats_.route_probes;
    obs::FlightRecorder::global().record(host_.name(), "multipath", "route_probe",
                                         "peer=" + peer.to_string());
    log_.debug("re-probing default route to ", peer.to_string());
  }
}

std::uint64_t SrudpEndpoint::send(const simnet::Address& dst, Payload message) {
  auto& out = ensure_out(dst);
  if (out.rto == 0) out.rto = config_.initial_rto;

  OutMessage msg;
  msg.msg_id = out.next_msg_id++;
  // Trace context: deterministic (no RNG draw) and carried by every
  // fragment, so enabling flow recording cannot perturb the simulation.
  msg.flow = mint_flow(host_.name(), port_, dst.host, dst.port, msg.msg_id);
  msg.enqueued = engine_.now();
  msg.frag_size = frag_payload_;
  msg.frag_count = message.empty()
                       ? 1
                       : static_cast<std::uint32_t>((message.size() + frag_payload_ - 1) /
                                                    frag_payload_);
  msg.data = std::move(message);
  msg.acked = make_bitmap(msg.frag_count);
  msg.deadline = engine_.now() + config_.msg_ttl;
  std::uint64_t msg_id = msg.msg_id;
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled()) {
    tracer.flow(obs::TraceEvent::Phase::flow_start, "flow", "srudp.send", msg.flow,
                {{"peer", dst.to_string()},
                 {"msg", std::to_string(msg.msg_id)},
                 {"bytes", std::to_string(msg.data.size())}});
    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "srudp.frag", msg.flow,
                {{"frags", std::to_string(msg.frag_count)}});
  }
  out.queue.push_back(std::move(msg));
  ++stats_.messages_sent;
  // pump() may expire the message just queued (a zero/tiny msg_ttl) or any
  // other head, so out.queue.back() is not safe to touch afterwards.
  pump(dst);
  return msg_id;
}

std::size_t SrudpEndpoint::pending() const {
  std::size_t n = 0;
  for (const auto& [peer, out] : out_) n += out.queue.size();
  return n;
}

void SrudpEndpoint::pump(const simnet::Address& peer) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;

  // Drop messages whose TTL passed (front of queue first; ordering means
  // later messages cannot have expired earlier).
  while (!out.queue.empty() && out.queue.front().deadline <= engine_.now())
    expire_head(peer, out);

  for (auto& msg : out.queue) {
    // Requested retransmissions first: they unblock the receiver.
    while (out.inflight < config_.window && !msg.retransmit.empty()) {
      std::uint32_t index = msg.retransmit.front();
      msg.retransmit.pop_front();
      if (bitmap_get(msg.acked, index)) continue;  // acked since the request
      send_fragment(peer, out, msg, index, /*retransmission=*/true);
    }
    while (out.inflight < config_.window && msg.next_unsent < msg.frag_count) {
      send_fragment(peer, out, msg, msg.next_unsent, /*retransmission=*/false);
      ++msg.next_unsent;
    }
    if (out.inflight >= config_.window) break;
  }
  // The retransmission timer runs whenever anything is unacknowledged, even
  // if the inflight *estimate* reads zero — it is our only recovery path
  // when every ack was lost.
  if (!out.queue.empty()) arm_rto(peer);
}

void SrudpEndpoint::send_fragment(const simnet::Address& peer, PeerOut& out, OutMessage& msg,
                                  std::uint32_t index, bool retransmission) {
  DataPacket p;
  p.msg_id = msg.msg_id;
  p.frag_index = index;
  p.frag_count = msg.frag_count;
  p.total_len = static_cast<std::uint32_t>(msg.data.size());
  p.flow = msg.flow;
  std::size_t begin = static_cast<std::size_t>(index) * msg.frag_size;
  std::size_t end = std::min(msg.data.size(), begin + msg.frag_size);
  // A fragment is a *slice* of the message buffer, not a copy of it.
  if (begin < end) p.payload = msg.data.slice(begin, end - begin);

  if (msg.first_sent < 0) msg.first_sent = engine_.now();
  if (retransmission) {
    msg.retransmitted = true;
    ++stats_.fragments_retransmitted;
  }
  ++stats_.fragments_sent;
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled()) {
    const std::string& path = out.path.preferred();
    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow",
                retransmission ? "srudp.retransmit" : "srudp.tx", msg.flow,
                {{"frag", std::to_string(index)}, {"path", path.empty() ? "auto" : path}});
  }
  ++out.inflight;
  raw_send(peer, &out, encode_data(port_, p, config_.checksum));
}

void SrudpEndpoint::raw_send(const simnet::Address& peer, PeerOut* out, Payload wire) {
  simnet::SendOptions opts;
  opts.src_port = port_;
  if (out != nullptr) opts.preferred_network = out->path.preferred();
  auto r = host_.send(peer, std::move(wire), opts);
  if (!r) log_.trace("send to ", peer.to_string(), " failed: ", r.error().to_string());
}

void SrudpEndpoint::arm_rto(const simnet::Address& peer) {
  PeerOut& out = ensure_out(peer);
  if (out.rto_timer.valid()) return;
  out.rto_timer = engine_.schedule(out.rto, [this, peer] {
    out_[peer].rto_timer = simnet::TimerId{};
    on_rto(peer);
  });
}

void SrudpEndpoint::on_rto(const simnet::Address& peer) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;
  while (!out.queue.empty() && out.queue.front().deadline <= engine_.now())
    expire_head(peer, out);
  if (out.queue.empty()) return;

  ++stats_.rto_events;
  obs::FlightRecorder::global().record(
      host_.name(), "srudp", "rto",
      "peer=" + peer.to_string() + " rto=" + format_time(out.rto) +
          " queued=" + std::to_string(out.queue.size()));
  // The window's worth of fragments we sent may all be gone; reset the
  // inflight estimate, re-probe, and let STATUS rebuild our picture.
  out.inflight = 0;
  if (out.path.on_timeout(host_)) {
    ++stats_.route_switches;
    auto& tracer = obs::Tracer::global();
    if (out.failover_span == 0)
      out.failover_span = tracer.begin_span("transport", "srudp.failover");
    tracer.instant("transport", "srudp.route_switch",
                   {{"peer", peer.to_string()}, {"to", out.path.preferred()}});
    // The route choice is per-peer; attribute it to the head message's flow
    // so the switch shows up inside the affected cross-host trace.
    if (tracer.flow_enabled())
      tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "srudp.route_switch",
                  out.queue.front().flow, {{"to", out.path.preferred()}});
    obs::FlightRecorder::global().record(
        host_.name(), "srudp", "route_switch",
        "peer=" + peer.to_string() + " to=" + out.path.preferred());
    log_.debug("route to ", peer.to_string(), " switched to ", out.path.preferred());
  }
  // Resend every sent-but-unacked fragment of every queued message (up to
  // one window).  Covering all messages matters: a later short message
  // whose single fragment was lost leaves no trace at the receiver (so no
  // STATUS can name it) and must not starve behind the head.  Tail loss of
  // the head is covered the same way.  A probe for the head asks the
  // receiver to resynchronize us with a STATUS.
  for (auto& msg : out.queue) {
    if (out.inflight >= config_.window) break;
    for (std::uint32_t i = 0; i < msg.next_unsent && out.inflight < config_.window; ++i) {
      if (!bitmap_get(msg.acked, i))
        send_fragment(peer, out, msg, i, /*retransmission=*/true);
    }
  }
  raw_send(peer, &out,
           encode_msg_id(PacketType::probe, port_, {out.queue.front().msg_id}));
  out.rto = std::min(out.rto * 2, config_.max_rto);
  arm_rto(peer);
}

void SrudpEndpoint::expire_head(const simnet::Address& peer, PeerOut& out) {
  log_.warn("message ", out.queue.front().msg_id, " to ", peer.to_string(),
            " expired unacknowledged");
  obs::Tracer::global().instant(
      "transport", "srudp.expire",
      {{"peer", peer.to_string()}, {"msg", std::to_string(out.queue.front().msg_id)}});
  obs::FlightRecorder::global().record(
      host_.name(), "srudp", "expire",
      "peer=" + peer.to_string() + " msg=" + std::to_string(out.queue.front().msg_id));
  out.queue.pop_front();
  out.inflight = 0;  // conservative: counted fragments belonged to the head
  ++stats_.messages_expired;
}

void SrudpEndpoint::on_packet(const simnet::Packet& packet) {
  auto head = decode_head(packet.payload);
  if (!head) return;
  simnet::Address peer{packet.src.host, head.value().src_port};
  switch (head.value().type) {
    case PacketType::data:
    case PacketType::data_ck: {
      auto p = decode_data(packet.payload);
      if (!p) break;
      if (!p.value().checksum_ok) {
        // Corrupt payload caught by the opt-in checksum: drop the fragment;
        // selective re-send recovers it like any other loss.
        ++stats_.checksum_rejects;
        obs::FlightRecorder::global().record(
            host_.name(), "srudp", "checksum_reject",
            "peer=" + peer.to_string() + " msg=" + std::to_string(p.value().msg_id));
        break;
      }
      on_data(peer, p.value());
      break;
    }
    case PacketType::status: {
      auto p = decode_status(packet.payload);
      if (p) on_status(peer, p.value());
      break;
    }
    case PacketType::msg_ack: {
      auto p = decode_msg_id(packet.payload);
      if (p) on_msg_ack(peer, p.value().msg_id);
      break;
    }
    case PacketType::probe: {
      auto p = decode_msg_id(packet.payload);
      if (p) on_probe(peer, p.value().msg_id);
      break;
    }
    default:
      log_.trace("ignoring non-SRUDP packet type ",
                 static_cast<int>(head.value().type));
  }
}

void SrudpEndpoint::on_data(const simnet::Address& peer, const DataPacket& p) {
  PeerIn& in = in_[peer];
  if (p.msg_id < in.next_deliver) {
    // Already delivered (or skipped): the MSG_ACK was lost; repeat it.
    raw_send(peer, nullptr, encode_msg_id(PacketType::msg_ack, port_, {p.msg_id}));
    ++stats_.duplicate_fragments;
    return;
  }
  if (in.complete.count(p.msg_id)) {
    raw_send(peer, nullptr, encode_msg_id(PacketType::msg_ack, port_, {p.msg_id}));
    ++stats_.duplicate_fragments;
    return;
  }

  auto [it, inserted] = in.partial.try_emplace(p.msg_id);
  InMessage& msg = it->second;
  if (inserted) {
    msg.frag_count = p.frag_count;
    msg.total_len = p.total_len;
    msg.flow = p.flow;
    msg.frags.resize(p.frag_count);
    msg.have = make_bitmap(p.frag_count);
  } else if (msg.frag_count != p.frag_count || msg.total_len != p.total_len) {
    log_.warn("inconsistent fragment metadata for msg ", p.msg_id, " from ",
              peer.to_string());
    return;
  }
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled())
    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "srudp.rx", p.flow,
                {{"frag", std::to_string(p.frag_index)}});
  if (bitmap_get(msg.have, p.frag_index)) {
    ++stats_.duplicate_fragments;
  } else {
    bitmap_set(msg.have, p.frag_index);
    msg.frags[p.frag_index] = p.payload;
    ++msg.have_count;
    msg.last_progress = engine_.now();
    while (msg.first_missing < msg.frag_count && bitmap_get(msg.have, msg.first_missing))
      ++msg.first_missing;
  }
  ++msg.since_status;

  if (msg.have_count == msg.frag_count) {
    // Complete: splice the fragment slices back together.  On a clean path
    // they are adjacent windows of the sender's original buffer, so append
    // coalesces them into one segment and no bytes move at all.
    Payload assembled;
    for (auto& frag : msg.frags) assembled.append(std::move(frag));
    std::uint64_t flow = msg.flow;
    engine_.cancel(msg.status_timer);
    in.partial.erase(it);
    if (assembled.size() != p.total_len) {
      log_.warn("reassembled length mismatch for msg ", p.msg_id);
      return;
    }
    if (tracer.flow_enabled())
      tracer.flow(obs::TraceEvent::Phase::flow_step, "flow", "srudp.reassemble", flow,
                  {{"msg", std::to_string(p.msg_id)},
                   {"bytes", std::to_string(assembled.size())}});
    raw_send(peer, nullptr, encode_msg_id(PacketType::msg_ack, port_, {p.msg_id}));
    in.complete[p.msg_id] = CompleteMsg{std::move(assembled), flow};
    try_deliver(peer);
    return;
  }

  // Cross-message gap detection: fragments of message N arriving while an
  // *older* message is still incomplete mean the older message's missing
  // fragments were lost (delivery is ordered per peer, so the sender has
  // moved on).  Report their bitmaps promptly — without this, a link
  // failure that kills a whole batch of in-flight messages would wait out
  // the periodic status backoff, because the sender's RTO keeps being
  // refreshed by the progress of newer messages.
  for (auto& [older_id, older] : in.partial) {
    if (older_id >= p.msg_id) break;
    if (older.last_status_sent >= 0 &&
        engine_.now() - older.last_status_sent < config_.status_interval / 2)
      continue;  // rate-limit repeats
    send_status(peer, older_id, older);
    older.last_status_sent = engine_.now();
  }

  // Incomplete.  Two triggers for a STATUS report: enough new fragments to
  // slide the sender's window, or a detected gap (selective re-send).
  if (msg.since_status >= config_.status_every) {
    send_status(peer, p.msg_id, msg);
    msg.last_status_sent = engine_.now();
    msg.since_status = 0;
    return;
  }
  // A gap: some fragment below this one is still missing.
  bool gap = msg.first_missing < p.frag_index;
  if (!msg.status_timer.valid())
    schedule_status(peer, p.msg_id, gap ? config_.gap_status_delay : config_.status_interval);
}

void SrudpEndpoint::schedule_status(const simnet::Address& peer, std::uint64_t msg_id,
                                    SimDuration delay) {
  PeerIn& in = in_[peer];
  auto it = in.partial.find(msg_id);
  if (it == in.partial.end()) return;
  it->second.status_timer = engine_.schedule(delay, [this, peer, msg_id] {
    auto pit = in_.find(peer);
    if (pit == in_.end()) return;
    auto mit = pit->second.partial.find(msg_id);
    if (mit == pit->second.partial.end()) return;
    InMessage& msg = mit->second;
    msg.status_timer = simnet::TimerId{};
    if (engine_.now() - msg.last_progress > config_.partial_ttl) {
      log_.warn("dropping stalled partial message ", msg_id, " from ", peer.to_string());
      pit->second.partial.erase(mit);
      return;
    }
    send_status(peer, msg_id, msg);
    msg.last_status_sent = engine_.now();
    msg.since_status = 0;
    // Periodic re-report with backoff while still incomplete.
    msg.status_backoff = std::min<SimDuration>(
        msg.status_backoff == 0 ? config_.status_interval : msg.status_backoff * 2,
        duration::seconds(1));
    schedule_status(peer, msg_id, msg.status_backoff);
  });
}

void SrudpEndpoint::send_status(const simnet::Address& peer, std::uint64_t msg_id,
                                const InMessage& msg) {
  StatusPacket p;
  p.msg_id = msg_id;
  p.frag_count = msg.frag_count;
  p.bitmap = msg.have;
  ++stats_.status_sent;
  raw_send(peer, nullptr, encode_status(port_, p));
}

void SrudpEndpoint::try_deliver(const simnet::Address& peer) {
  PeerIn& in = in_[peer];
  while (true) {
    auto it = in.complete.find(in.next_deliver);
    if (it == in.complete.end()) break;
    Payload payload = std::move(it->second.data);
    std::uint64_t flow = it->second.flow;
    in.complete.erase(it);
    auto& tracer = obs::Tracer::global();
    if (tracer.flow_enabled())
      tracer.flow(obs::TraceEvent::Phase::flow_end, "flow", "srudp.deliver", flow,
                  {{"peer", peer.to_string()},
                   {"msg", std::to_string(in.next_deliver)},
                   {"bytes", std::to_string(payload.size())}});
    ++in.next_deliver;
    ++stats_.messages_delivered;
    stats_.bytes_delivered += payload.size();
    // Handlers are promised contiguous bytes; flatten() only copies when
    // coalescing failed (e.g. a corrupted fragment was cloned mid-message).
    payload.flatten();
    last_delivered_flow_ = flow;
    if (handler_) handler_(peer, std::move(payload));
    last_delivered_flow_ = 0;
  }
  if (!in.complete.empty()) {
    arm_hol_skip(peer);
  } else {
    engine_.cancel(in.hol_timer);
    in.hol_timer = simnet::TimerId{};
    in.hol_since = -1;
  }
}

void SrudpEndpoint::arm_hol_skip(const simnet::Address& peer) {
  PeerIn& in = in_[peer];
  if (in.hol_timer.valid()) return;
  in.hol_since = engine_.now();
  in.hol_timer = engine_.schedule(config_.hol_skip, [this, peer] {
    PeerIn& in = in_[peer];
    in.hol_timer = simnet::TimerId{};
    if (in.complete.empty()) return;
    // The sender evidently abandoned the gap message(s); skip forward.
    std::uint64_t first_complete = in.complete.begin()->first;
    stats_.messages_skipped += first_complete - in.next_deliver;
    obs::FlightRecorder::global().record(
        host_.name(), "srudp", "hol_skip",
        "peer=" + peer.to_string() + " msgs=" + std::to_string(in.next_deliver) + ".." +
            std::to_string(first_complete - 1));
    log_.warn("skipping undeliverable messages ", in.next_deliver, "..",
              first_complete - 1, " from ", peer.to_string());
    in.next_deliver = first_complete;
    try_deliver(peer);
  });
}

void SrudpEndpoint::on_status(const simnet::Address& peer, const StatusPacket& p) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;
  for (auto& msg : out.queue) {
    if (msg.msg_id != p.msg_id) continue;
    // Fragments above the highest index the receiver reports may simply
    // still be in flight; only holes *below* it are known losses (SACK-style
    // selective re-send).  Tail losses are covered by the RTO probe.
    const std::uint32_t bytes = (msg.frag_count + 7) / 8;
    std::int64_t highest = -1;
    for (std::uint32_t b = bytes; b-- > 0;) {
      if (std::uint8_t r = bitmap_byte(p.bitmap, b, msg.frag_count)) {
        highest = static_cast<std::int64_t>(b) * 8 + std::bit_width(r) - 1;
        break;
      }
    }
    // Missing: unreported, unacked and sent, below `highest` — or anywhere
    // sent when highest < 0: the receiver has nothing at all (it restarted
    // or the whole window was lost), so resend everything we had sent.
    const std::uint32_t missing_below =
        highest < 0 ? msg.next_unsent
                    : std::min(msg.next_unsent, static_cast<std::uint32_t>(highest));
    msg.retransmit.clear();
    std::uint32_t newly_acked = 0;
    for (std::uint32_t b = 0; b < bytes; ++b) {
      std::uint8_t reported = bitmap_byte(p.bitmap, b, msg.frag_count);
      std::uint8_t& acked = msg.acked[b];
      auto fresh = static_cast<std::uint8_t>(reported & ~acked);
      acked |= fresh;
      newly_acked += std::popcount(fresh);
      auto missing = static_cast<std::uint8_t>(~reported & ~acked & bits_below(b, missing_below));
      for (; missing != 0; missing &= missing - 1)
        msg.retransmit.push_back(b * 8 + std::countr_zero(missing));
    }
    msg.acked_count += newly_acked;
    out.inflight -= std::min<std::size_t>(out.inflight, newly_acked);
    if (newly_acked > 0) msg.implied_retx = false;  // progress re-arms the signal
    if (newly_acked > 0) {
      // Real progress: the current route works.  (A STATUS that acks
      // nothing is a receiver stall report and must NOT reset the failover
      // counter — it can arrive over a different interface than the one
      // our data is dying on.)  Restart the retransmission timer too.
      note_route_success(peer, out);
      if (out.failover_span != 0) {
        obs::Tracer::global().end_span(out.failover_span,
                                       {{"route", out.path.preferred()}});
        out.failover_span = 0;
      }
      engine_.cancel(out.rto_timer);
      out.rto_timer = simnet::TimerId{};
    }
    pump(peer);
    return;
  }
  // Unknown message (already fully acked): nothing to do.
}

void SrudpEndpoint::on_msg_ack(const simnet::Address& peer, std::uint64_t msg_id) {
  auto it = out_.find(peer);
  if (it == out_.end()) return;
  PeerOut& out = it->second;

  // Implied loss: the receiver completed message `msg_id`, so every fully
  // sent but unacknowledged *older* message must have lost fragments the
  // receiver cannot even name (it may never have seen any of them — e.g. a
  // link failure that swallowed the whole message).  Requeue their unacked
  // fragments once; without this, recovery of wholly-lost messages waits
  // on the RTO, which newer messages' progress keeps pushing out.
  bool queued_implied = false;
  for (auto& msg : out.queue) {
    if (msg.msg_id >= msg_id) break;
    if (msg.implied_retx || msg.next_unsent < msg.frag_count) continue;
    for (std::uint32_t i = 0; i < msg.frag_count; ++i)
      if (!bitmap_get(msg.acked, i)) msg.retransmit.push_back(i);
    msg.implied_retx = true;
    queued_implied = true;
  }

  for (auto qit = out.queue.begin(); qit != out.queue.end(); ++qit) {
    if (qit->msg_id != msg_id) continue;
    // Sender-side delivery latency: send() to whole-message MSG_ACK.  This
    // needs no extra wire bytes and, unlike the RTT sample, deliberately
    // includes retransmitted messages — the health rollup's p99 should show
    // what loss recovery costs.
    delivery_ms_->observe(static_cast<double>(engine_.now() - qit->enqueued) / 1e6);
    // RTT sample per Karn's rule: only from never-retransmitted messages.
    if (!qit->retransmitted && qit->first_sent >= 0) {
      SimDuration sample = engine_.now() - qit->first_sent;
      rtt_ms_->observe(static_cast<double>(sample) / 1e6);
      out.rtt.observe(sample);
      out.rto = out.rtt.rto(config_.min_rto, config_.max_rto);
    }
    std::uint32_t sent = std::min(qit->next_unsent, qit->frag_count);
    std::uint32_t unacked_inflight = sent - bitmap_count(qit->acked, sent);
    out.inflight -= std::min<std::size_t>(out.inflight, unacked_inflight);
    out.queue.erase(qit);
    note_route_success(peer, out);
    if (out.failover_span != 0) {
      obs::Tracer::global().end_span(out.failover_span,
                                     {{"route", out.path.preferred()}});
      out.failover_span = 0;
    }
    engine_.cancel(out.rto_timer);
    out.rto_timer = simnet::TimerId{};
    if (out.queue.empty()) {
      out.inflight = 0;
    } else {
      pump(peer);  // re-arms the timer
    }
    return;
  }
  // Duplicate ack for an already-retired message: if the implied-loss scan
  // queued retransmissions above, push them out now.
  if (queued_implied) pump(peer);
}

void SrudpEndpoint::on_probe(const simnet::Address& peer, std::uint64_t msg_id) {
  PeerIn& in = in_[peer];
  if (msg_id < in.next_deliver || in.complete.count(msg_id)) {
    raw_send(peer, nullptr, encode_msg_id(PacketType::msg_ack, port_, {msg_id}));
    return;
  }
  auto it = in.partial.find(msg_id);
  if (it != in.partial.end()) {
    send_status(peer, msg_id, it->second);
    it->second.since_status = 0;
  } else {
    // Never seen: report an empty bitmap so the sender restarts the message.
    StatusPacket p;
    p.msg_id = msg_id;
    p.frag_count = 0;
    ++stats_.status_sent;
    raw_send(peer, nullptr, encode_status(port_, p));
  }
}

}  // namespace snipe::transport
