// SRUDP: SNIPE's selective re-send datagram protocol (§6).
//
// The 1998 comms module "supported a selective re-send UDP protocol as well
// as TCP/IP", buffered messages so "migrating or temporarily unavailable
// tasks did not result in lost messages", and could "switch
// routes/interfaces as links failed without user applications
// intervention".  SrudpEndpoint reproduces all three properties:
//
//  * Messages of any size are fragmented to the smallest MTU among the
//    host's interfaces and reassembled at the receiver.
//  * Reliability is receiver-driven and *selective*: the receiver reports a
//    fragment bitmap (STATUS) when it sees gaps or is probed; the sender
//    retransmits exactly the missing fragments.  A whole-message MSG_ACK
//    retires the send buffer.  This is the design difference from TCP's
//    cumulative-ACK stream that Fig. 1 quantifies.
//  * No connection handshake: the first data fragment can carry payload,
//    so short messages complete in a single round trip.
//  * Messages are buffered and retransmitted until acknowledged or their
//    TTL expires, so a receiver that is briefly down (rebooting, migrating)
//    gets them on return.
//  * Per-peer MultipathPolicy rotates interfaces after repeated timeouts.
//
// Delivery is in-order per (sender, receiver) endpoint pair, matching the
// PVM message-passing semantics SNIPE inherited; a head-of-line gap left by
// an expired message is skipped after `hol_skip`.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simnet/world.hpp"
#include "transport/multipath.hpp"
#include "transport/rtt.hpp"
#include "transport/wire.hpp"
#include "util/log.hpp"

namespace snipe::transport {

struct SrudpConfig {
  std::size_t window = 128;  ///< max unacked fragments in flight per peer
  SimDuration initial_rto = duration::milliseconds(50);
  SimDuration min_rto = duration::milliseconds(2);
  SimDuration max_rto = duration::seconds(2);
  /// Receiver: delay between noticing a gap and sending a STATUS, letting
  /// slightly-reordered fragments land first.
  SimDuration gap_status_delay = duration::milliseconds(1);
  /// Receiver: periodic STATUS interval for incomplete messages (doubles
  /// each repetition up to 1 s).
  SimDuration status_interval = duration::milliseconds(20);
  /// Receiver: also push a STATUS every N fragments of a large message so
  /// the sender's window keeps sliding without waiting for gaps.
  std::uint32_t status_every = 32;
  /// Sender: how long to keep retrying an unacknowledged message.  This is
  /// the "system buffering" that protects migrating/rebooting receivers.
  SimDuration msg_ttl = duration::seconds(30);
  /// Receiver: head-of-line gap skip (only reached if a sender expired a
  /// message or died mid-send).
  SimDuration hol_skip = duration::seconds(10);
  /// Receiver: drop a partially-received message if no new fragment arrives
  /// for this long (the sender evidently gave up or died).
  SimDuration partial_ttl = duration::seconds(60);
  int failover_threshold = 2;  ///< consecutive RTOs before switching routes
  /// How long a failover route must stay timeout-free before the policy
  /// re-probes the default (fastest) route; <= 0 pins the detour forever.
  SimDuration route_probe_quiet = duration::seconds(10);
  /// Adds an FNV-1a payload checksum to every DATA fragment (wire type
  /// data_ck) and rejects fragments whose checksum does not verify.  Off by
  /// default: the 1998 wire format had none, and the unchecked path is the
  /// ablation baseline for the corruption chaos scenarios.  Both ends must
  /// agree only in the sense that a checksumming receiver still accepts
  /// plain DATA — the wire type is self-describing.
  bool checksum = false;
};

/// Per-endpoint counters.  The cells are the single point of increment;
/// each endpoint registers them as pull sources in the global
/// obs::MetricsRegistry (names "srudp.messages_sent", "srudp.retransmits",
/// ...), so `stats()` stays a thin per-instance view while the registry
/// reports fleet-wide totals.
struct SrudpStats {
  obs::Cell messages_sent;
  obs::Cell messages_delivered;
  obs::Cell messages_expired;   ///< sender gave up (TTL)
  obs::Cell messages_skipped;   ///< receiver skipped a HOL gap
  obs::Cell fragments_sent;
  obs::Cell fragments_retransmitted;
  obs::Cell duplicate_fragments;
  obs::Cell status_sent;
  obs::Cell rto_events;
  obs::Cell bytes_delivered;
  obs::Cell route_switches;
  obs::Cell route_probes;      ///< probe resets back to the default route
  obs::Cell checksum_rejects;  ///< data_ck fragments failing verification
};

/// A reliable, message-oriented endpoint bound to one (host, port).
class SrudpEndpoint {
 public:
  /// Delivered messages arrive as a contiguous Payload that, on a clean
  /// path, aliases the sender's original message buffer (fragments coalesce
  /// back during reassembly — no copy was ever made).
  using MessageHandler =
      std::function<void(const simnet::Address& src, Payload message)>;

  /// Binds `port` on `host` (0 picks an ephemeral port).  Asserts that the
  /// port was free.
  SrudpEndpoint(simnet::Host& host, std::uint16_t port, SrudpConfig config = {});
  ~SrudpEndpoint();

  SrudpEndpoint(const SrudpEndpoint&) = delete;
  SrudpEndpoint& operator=(const SrudpEndpoint&) = delete;

  /// Queues `message` for reliable in-order delivery to `dst` (another
  /// SrudpEndpoint's address).  Returns the message id, which increases per
  /// destination.  Never blocks; failure surfaces as expiry in stats.
  std::uint64_t send(const simnet::Address& dst, Payload message);

  /// Installs the delivery callback.
  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  std::uint16_t port() const { return port_; }
  simnet::Address address() const { return {host_.name(), port_}; }
  simnet::Host& host() { return host_; }

  /// Unacknowledged messages still buffered across all peers; a migrating
  /// process drains this to zero before moving (§5.6's no-loss guarantee).
  std::size_t pending() const;

  const SrudpStats& stats() const { return stats_; }
  const SrudpConfig& config() const { return config_; }

  /// Flow id of the message most recently handed to the delivery handler
  /// (valid inside the handler call).  Layers above srudp — rpc notably —
  /// use it to link their own trace steps into the message's flow without
  /// any extra wire bytes.
  std::uint64_t last_delivered_flow() const { return last_delivered_flow_; }

 private:
  struct OutMessage {
    std::uint64_t msg_id = 0;
    std::uint64_t flow = 0;   ///< trace context carried by every fragment
    SimTime enqueued = 0;     ///< send() time; delivery latency = ack - this
    Payload data;  ///< the whole message; fragments are slices of it
    std::uint32_t frag_count = 0;
    std::size_t frag_size = 0;
    Bytes acked;                    ///< bitmap of fragments the peer has
    std::uint32_t acked_count = 0;
    std::uint32_t next_unsent = 0;  ///< first never-transmitted fragment
    std::deque<std::uint32_t> retransmit;  ///< fragments requested again
    SimTime first_sent = -1;
    SimTime deadline = 0;
    bool retransmitted = false;  ///< poisons the RTT sample (Karn's rule)
    bool implied_retx = false;   ///< one implied-loss resend already queued
  };

  struct PeerOut {
    std::uint64_t next_msg_id = 1;
    std::deque<OutMessage> queue;
    std::size_t inflight = 0;  ///< fragments sent and not known received
    RttEstimator rtt;
    SimDuration rto;
    simnet::TimerId rto_timer;
    MultipathPolicy path;
    /// Open "srudp.failover" span: starts at the route switch, ends at the
    /// first acknowledged progress on the new route.
    obs::SpanId failover_span = 0;
  };

  struct InMessage {
    std::vector<Payload> frags;  ///< slices of the sender's buffer
    std::uint64_t flow = 0;      ///< trace context from the fragments
    Bytes have;  ///< bitmap
    std::uint32_t have_count = 0;
    std::uint32_t first_missing = 0;  ///< lowest index not in `have`
    std::uint32_t frag_count = 0;
    std::uint32_t total_len = 0;
    std::uint32_t since_status = 0;
    simnet::TimerId status_timer;
    SimDuration status_backoff = 0;
    SimTime last_progress = 0;
    SimTime last_status_sent = -1;
  };

  /// A reassembled message waiting its turn in the in-order queue; the flow
  /// id rides along so delivery can close the cross-host trace.
  struct CompleteMsg {
    Payload data;
    std::uint64_t flow = 0;
  };

  struct PeerIn {
    std::uint64_t next_deliver = 1;
    std::map<std::uint64_t, InMessage> partial;
    std::map<std::uint64_t, CompleteMsg> complete;  ///< awaiting in-order delivery
    simnet::TimerId hol_timer;
    SimTime hol_since = -1;
  };

  /// out_[peer] with the MultipathPolicy configured from SrudpConfig on
  /// first touch (failover threshold + probe-quiet period).
  PeerOut& ensure_out(const simnet::Address& peer);
  /// on_success with the probe-after-quiet bookkeeping (flight + stats).
  void note_route_success(const simnet::Address& peer, PeerOut& out);

  void on_packet(const simnet::Packet& packet);
  void on_data(const simnet::Address& peer, const DataPacket& p);
  void on_status(const simnet::Address& peer, const StatusPacket& p);
  void on_msg_ack(const simnet::Address& peer, std::uint64_t msg_id);
  void on_probe(const simnet::Address& peer, std::uint64_t msg_id);

  /// Sends fragments for `peer` while the window has room.
  void pump(const simnet::Address& peer);
  void send_fragment(const simnet::Address& peer, PeerOut& out, OutMessage& msg,
                     std::uint32_t index, bool retransmission);
  void arm_rto(const simnet::Address& peer);
  void on_rto(const simnet::Address& peer);
  void expire_head(const simnet::Address& peer, PeerOut& out);

  void send_status(const simnet::Address& peer, std::uint64_t msg_id, const InMessage& msg);
  void schedule_status(const simnet::Address& peer, std::uint64_t msg_id,
                       SimDuration delay);
  void try_deliver(const simnet::Address& peer);
  void arm_hol_skip(const simnet::Address& peer);

  void raw_send(const simnet::Address& peer, PeerOut* out, Payload wire);

  simnet::Host& host_;
  simnet::Engine& engine_;
  std::uint16_t port_;
  SrudpConfig config_;
  std::size_t frag_payload_;  ///< min over attached NICs' MTU - header
  MessageHandler handler_;
  std::map<simnet::Address, PeerOut> out_;
  std::map<simnet::Address, PeerIn> in_;
  std::uint64_t last_delivered_flow_ = 0;
  SrudpStats stats_;
  obs::Histogram* rtt_ms_;  ///< global "srudp.rtt_ms" (Karn-filtered samples)
  /// Global "srudp.delivery_ms": send() to MSG_ACK per message, the
  /// sender-side delivery latency the console's health rollup reports.
  obs::Histogram* delivery_ms_;
  Logger log_;
  /// Declared after stats_ so the sources unregister (and fold into the
  /// registry's retained totals) before the cells they read are destroyed.
  obs::SourceGroup metrics_sources_;
};

}  // namespace snipe::transport
