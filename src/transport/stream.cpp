#include "transport/stream.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace snipe::transport {

namespace {
constexpr std::size_t kRwnd = 256 * 1024;  // advertised receive window
constexpr std::size_t kInitialCwndSegments = 4;
constexpr SimDuration kInitialRto = duration::milliseconds(100);
constexpr SimDuration kMinRto = duration::milliseconds(2);
constexpr SimDuration kMaxRto = duration::seconds(4);
}  // namespace

// ---------- StreamEndpoint ----------

StreamEndpoint::StreamEndpoint(simnet::Host& host, std::uint16_t port)
    : host_(host),
      engine_(host.engine()),
      port_(port == 0 ? host.ephemeral_port() : port),
      log_("stream@" + host.name() + ":" + std::to_string(port_)) {
  host_.bind(port_, [this](const simnet::Packet& p) { on_packet(p); }).value();
}

StreamEndpoint::~StreamEndpoint() {
  host_.unbind(port_);
  for (auto& [key, conn] : connections_) {
    engine_.cancel(conn->rto_timer_);
    conn->state_ = StreamConnection::State::closed;
    conn->endpoint_ = nullptr;
  }
}

std::shared_ptr<StreamConnection> StreamEndpoint::connect(const simnet::Address& dst) {
  std::uint32_t conn_id = next_conn_id_++;
  auto conn = std::shared_ptr<StreamConnection>(new StreamConnection(this, dst, conn_id));
  connections_[{dst, conn_id}] = conn;
  conn->start_connect();
  return conn;
}

void StreamEndpoint::on_packet(const simnet::Packet& packet) {
  auto head = decode_head(packet.payload);
  if (!head) return;
  auto type = head.value().type;
  if (type != PacketType::syn && type != PacketType::syn_ack && type != PacketType::ack &&
      type != PacketType::seg && type != PacketType::fin && type != PacketType::rst)
    return;
  auto p = decode_stream(packet.payload);
  if (!p) return;
  simnet::Address peer{packet.src.host, head.value().src_port};
  auto key = std::make_pair(peer, p.value().conn_id);
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    if (type != PacketType::syn) return;  // stray packet for a dead conn
    auto conn =
        std::shared_ptr<StreamConnection>(new StreamConnection(this, peer, p.value().conn_id));
    connections_[key] = conn;
    conn->state_ = StreamConnection::State::syn_received;
    conn->rcv_nxt = 0;
    conn->peer_window_ = p.value().window;
    conn->send_control(PacketType::syn_ack);
    if (on_accept_) on_accept_(conn);
    return;
  }
  it->second->on_packet(type, p.value());
}

void StreamEndpoint::raw_send(const simnet::Address& dst, Payload wire) {
  simnet::SendOptions opts;
  opts.src_port = port_;
  auto r = host_.send(dst, std::move(wire), opts);
  if (!r) log_.trace("send failed: ", r.error().to_string());
}

// ---------- StreamConnection ----------

StreamConnection::StreamConnection(StreamEndpoint* endpoint, simnet::Address peer,
                                   std::uint32_t conn_id)
    : endpoint_(endpoint), peer_(std::move(peer)), conn_id_(conn_id) {
  rto_ = kInitialRto;
  peer_window_ = kRwnd;
  cwnd = static_cast<double>(kInitialCwndSegments) * static_cast<double>(mss());
  ssthresh = static_cast<double>(kRwnd);

  delivery_ms_ = &obs::MetricsRegistry::global().histogram("stream.delivery_ms");
  metrics_sources_.add("stream.segments_sent", [this] { return stats_.segments_sent; });
  metrics_sources_.add("stream.segments_retransmitted",
                       [this] { return stats_.segments_retransmitted; });
  metrics_sources_.add("stream.bytes_sent", [this] { return stats_.bytes_sent; });
  metrics_sources_.add("stream.messages_delivered",
                       [this] { return stats_.messages_delivered; });
  metrics_sources_.add("stream.bytes_delivered", [this] { return stats_.bytes_delivered; });
  metrics_sources_.add("stream.rto_events", [this] { return stats_.rto_events; });
  metrics_sources_.add("stream.fast_retransmits",
                       [this] { return stats_.fast_retransmits; });
}

std::size_t StreamConnection::mss() const {
  std::size_t budget = 65535;
  for (const auto& nic : endpoint_->host().nics())
    budget = std::min(budget, nic->network()->model().mtu);
  return budget - kStreamHeaderBytes;
}

void StreamConnection::start_connect() {
  state_ = State::syn_sent;
  send_control(PacketType::syn);
  arm_rto();
}

void StreamConnection::send_control(PacketType type) {
  StreamPacket p;
  p.conn_id = conn_id_;
  p.seq = snd_nxt;
  p.ack = rcv_nxt;
  p.window = static_cast<std::uint32_t>(kRwnd);
  endpoint_->raw_send(peer_, encode_stream(type, endpoint_->port(), p));
}

void StreamConnection::send_message(Payload message) {
  // Trace context rides the reliable framing itself — [u32 len][u64 flow]
  // [bytes] — so it crosses retransmissions and resegmentation exactly
  // once, in order, and the receiver closes the flow at parse time.
  std::uint64_t flow = mint_flow(endpoint_->host().name(), endpoint_->port(), peer_.host,
                                 peer_.port, next_msg_seq_++);
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled())
    tracer.flow(obs::TraceEvent::Phase::flow_start, "flow", "stream.send", flow,
                {{"peer", peer_.to_string()},
                 {"bytes", std::to_string(message.size())}});
  // Splice the frame header (held scratch: it lives until the frame is
  // acked) and the caller's message buffer into the frame without copying
  // either.
  PayloadWriter w(PayloadWriter::Lifetime::held);
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.u64(flow);
  w.append(message);
  Payload bytes = std::move(w).take();
  std::uint64_t end = queued_end() + bytes.size();
  frames_.push_back(Frame{std::move(bytes), end, flow, endpoint_->engine().now()});
  if (state_ == State::established) pump();
}

void StreamConnection::pump() {
  if (state_ != State::established) return;
  std::uint64_t buffered_end = queued_end();
  std::uint64_t window_limit =
      snd_una + std::min<std::uint64_t>(static_cast<std::uint64_t>(cwnd), peer_window_);
  while (snd_nxt < buffered_end && snd_nxt < window_limit) {
    std::size_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(mss()), buffered_end - snd_nxt, window_limit - snd_nxt});
    if (len == 0) break;
    send_segment(snd_nxt, len, /*retransmission=*/false);
    snd_nxt += len;
  }
  if (snd_una < snd_nxt) arm_rto();
}

void StreamConnection::send_segment(std::uint64_t seq, std::size_t len, bool retransmission) {
  StreamPacket p;
  p.conn_id = conn_id_;
  p.seq = seq;
  p.ack = rcv_nxt;
  p.window = static_cast<std::uint32_t>(kRwnd);
  // Frames are ascending by end, so the first one ending past `seq` holds
  // the segment's first byte (and owns it for tracing); the rest of the
  // segment comes from the frames that follow.
  auto frame = std::upper_bound(frames_.begin(), frames_.end(), seq,
                                [](std::uint64_t s, const Frame& f) { return s < f.end; });
  const std::uint64_t flow = frame->flow;
  std::size_t off = static_cast<std::size_t>(seq - (frame->end - frame->bytes.size()));
  for (std::size_t left = len; left > 0; ++frame, off = 0) {
    std::size_t take = std::min(left, frame->bytes.size() - off);
    p.payload.append(frame->bytes.slice(off, take));
    left -= take;
  }

  if (retransmission) {
    ++stats_.segments_retransmitted;
    if (rtt_seq_ > seq) rtt_sent_at_ = -1;  // Karn: discard the probe
  } else if (rtt_sent_at_ < 0) {
    rtt_seq_ = seq + len;
    rtt_sent_at_ = endpoint_->engine().now();
  }
  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  auto& tracer = obs::Tracer::global();
  if (tracer.flow_enabled())
    tracer.flow(obs::TraceEvent::Phase::flow_step, "flow",
                retransmission ? "stream.retransmit" : "stream.tx", flow,
                {{"seq", std::to_string(seq)}, {"len", std::to_string(len)}});
  endpoint_->raw_send(peer_, encode_stream(PacketType::seg, endpoint_->port(), p));
}

void StreamConnection::arm_rto() {
  if (rto_timer_.valid()) return;
  rto_timer_ = endpoint_->engine().schedule(rto_, [this] {
    rto_timer_ = simnet::TimerId{};
    on_rto();
  });
}

void StreamConnection::on_rto() {
  if (state_ == State::closed || endpoint_ == nullptr) return;
  if (state_ == State::syn_sent) {
    send_control(PacketType::syn);
    rto_ = std::min(rto_ * 2, kMaxRto);
    arm_rto();
    return;
  }
  if (snd_una == snd_nxt) return;  // everything acked in the meantime
  ++stats_.rto_events;
  obs::FlightRecorder::global().record(
      endpoint_->host().name(), "stream", "rto",
      "peer=" + peer_.to_string() + " una=" + std::to_string(snd_una) +
          " nxt=" + std::to_string(snd_nxt));
  // Reno on timeout: collapse to one segment and retransmit the hole.
  ssthresh = std::max(cwnd / 2, 2.0 * static_cast<double>(mss()));
  cwnd = static_cast<double>(mss());
  dup_acks_ = 0;
  std::size_t len =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(mss()), snd_nxt - snd_una);
  send_segment(snd_una, len, /*retransmission=*/true);
  rto_ = std::min(rto_ * 2, kMaxRto);
  arm_rto();
}

void StreamConnection::on_packet(PacketType type, const StreamPacket& p) {
  switch (type) {
    case PacketType::syn:
      // Retransmitted SYN for an existing connection: repeat SYN-ACK.
      if (state_ == State::syn_received) send_control(PacketType::syn_ack);
      break;
    case PacketType::syn_ack:
      if (state_ == State::syn_sent) {
        state_ = State::established;
        peer_window_ = p.window;
        endpoint_->engine().cancel(rto_timer_);
        rto_timer_ = simnet::TimerId{};
        rto_ = kInitialRto;
        send_control(PacketType::ack);
        if (on_connect_) on_connect_(ok_result());
        pump();
      } else if (state_ == State::established) {
        send_control(PacketType::ack);  // our ACK was lost
      }
      break;
    case PacketType::ack:
      if (state_ == State::syn_received) {
        state_ = State::established;
        peer_window_ = p.window;
        pump();
      } else {
        on_ack(p);
      }
      break;
    case PacketType::seg:
      if (state_ == State::syn_received) {
        // Our SYN-ACK arrived and the peer is already sending: promote.
        state_ = State::established;
      }
      on_data_segment(p);
      on_ack(p);
      break;
    case PacketType::fin:
      state_ = State::closed;
      send_control(PacketType::ack);
      break;
    case PacketType::rst:
      state_ = State::closed;
      break;
    default:
      break;
  }
}

void StreamConnection::on_data_segment(const StreamPacket& p) {
  if (p.payload.empty()) return;
  if (p.seq + p.payload.size() <= rcv_nxt) {
    send_control(PacketType::ack);  // stale retransmission; re-ack
    return;
  }
  if (p.seq > rcv_nxt) {
    out_of_order_.emplace(p.seq, p.payload);
    send_control(PacketType::ack);  // duplicate ack signals the gap
    return;
  }
  // Accept [rcv_nxt, ...) — the segment may partially overlap old data.
  std::size_t skip = static_cast<std::size_t>(rcv_nxt - p.seq);
  receive_buffer_.append(p.payload.slice(skip, p.payload.size() - skip));
  rcv_nxt += p.payload.size() - skip;
  deliver_contiguous();
  send_control(PacketType::ack);
  parse_messages();
}

void StreamConnection::deliver_contiguous() {
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (it->first > rcv_nxt) break;
    const Payload& seg = it->second;
    if (it->first + seg.size() > rcv_nxt) {
      std::size_t skip = static_cast<std::size_t>(rcv_nxt - it->first);
      receive_buffer_.append(seg.slice(skip, seg.size() - skip));
      rcv_nxt += seg.size() - skip;
    }
    out_of_order_.erase(it);
  }
}

void StreamConnection::parse_messages() {
  // One cursor walks the frames by offset, each message is one slice, and
  // the parsed prefix is cut off once at the end.  (Packets always arrive
  // through engine events, so handlers never re-enter this loop.)
  PayloadCursor r(receive_buffer_);
  std::size_t parsed = 0;
  while (r.remaining() >= kStreamFrameHeaderBytes) {
    std::uint32_t len = r.u32().value();
    std::uint64_t flow = r.u64().value();
    if (r.remaining() < len) break;
    Payload message = r.view(len).value();
    parsed += kStreamFrameHeaderBytes + len;
    ++stats_.messages_delivered;
    stats_.bytes_delivered += message.size();
    auto& tracer = obs::Tracer::global();
    if (tracer.flow_enabled())
      tracer.flow(obs::TraceEvent::Phase::flow_end, "flow", "stream.deliver", flow,
                  {{"peer", peer_.to_string()}, {"bytes", std::to_string(len)}});
    // Segments that were sliced from one original message buffer coalesced
    // back during reassembly, making this a no-op on the clean path.
    message.flatten();
    if (on_message_) on_message_(std::move(message));
  }
  if (parsed > 0)
    receive_buffer_ = receive_buffer_.slice(parsed, receive_buffer_.size() - parsed);
}

void StreamConnection::on_ack(const StreamPacket& p) {
  if (state_ != State::established) return;
  peer_window_ = p.window;
  if (p.ack > snd_una) {
    snd_una = p.ack;
    if (snd_nxt < snd_una) snd_nxt = snd_una;
    dup_acks_ = 0;

    // Messages whose whole frame is now acked are delivered as far as the
    // sender can observe; record their latency and retire the frames.
    while (!frames_.empty() && frames_.front().end <= snd_una) {
      delivery_ms_->observe(
          static_cast<double>(endpoint_->engine().now() - frames_.front().enqueued) / 1e6);
      frames_.pop_front();
    }

    // RTT sample (Karn-filtered).
    if (rtt_sent_at_ >= 0 && p.ack >= rtt_seq_) {
      rtt_.observe(endpoint_->engine().now() - rtt_sent_at_);
      rtt_sent_at_ = -1;
    }

    // Congestion control: slow start then congestion avoidance.
    double m = static_cast<double>(mss());
    if (cwnd < ssthresh)
      cwnd += m;
    else
      cwnd += m * m / cwnd;

    // Forward progress collapses any RTO backoff (as in RFC 6298 §5.7):
    // Karn's rule can starve the RTT estimator for a long stretch of
    // retransmissions, and without this the timer stays pinned at max_rto,
    // turning each further loss into a multi-second stall.
    // The fresh sample above, if any, lands in the timer here too.
    if (rtt_.sampled()) rto_ = rtt_.rto(kMinRto, kMaxRto);
    endpoint_->engine().cancel(rto_timer_);
    rto_timer_ = simnet::TimerId{};
    if (snd_una < snd_nxt) arm_rto();
    pump();
  } else if (p.ack == snd_una && snd_una < snd_nxt) {
    if (++dup_acks_ == 3) {
      ++stats_.fast_retransmits;
      obs::FlightRecorder::global().record(
          endpoint_->host().name(), "stream", "fast_retransmit",
          "peer=" + peer_.to_string() + " una=" + std::to_string(snd_una));
      ssthresh = std::max(cwnd / 2, 2.0 * static_cast<double>(mss()));
      cwnd = ssthresh;
      std::size_t len =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(mss()), snd_nxt - snd_una);
      send_segment(snd_una, len, /*retransmission=*/true);
    }
  }
}

}  // namespace snipe::transport
