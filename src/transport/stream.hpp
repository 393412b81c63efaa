// A TCP-like reliable byte-stream protocol.
//
// SNIPE's comms module offered TCP alongside its own selective re-send
// protocol (§6), and Fig. 1 compares the two on each medium.  To make that
// comparison on the simulator we implement the relevant TCP mechanics from
// scratch: three-way handshake, MSS segmentation, cumulative ACKs, sliding
// window bounded by min(cwnd, receiver window), slow start / congestion
// avoidance (Reno-style), fast retransmit on three duplicate ACKs, and RTO
// with exponential backoff.  Messages ride on the stream with a 4-byte
// length prefix, so both protocols present the same message API to the
// layers above.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "obs/metrics.hpp"
#include "simnet/world.hpp"
#include "transport/rtt.hpp"
#include "transport/wire.hpp"
#include "util/log.hpp"

namespace snipe::transport {

struct StreamStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t rto_events = 0;
  std::uint64_t fast_retransmits = 0;
};

class StreamEndpoint;

/// One direction-pair of an established (or establishing) connection.
class StreamConnection {
 public:
  /// Messages are delivered as contiguous Payloads; on a clean path the
  /// bytes alias the sender's original message buffer (segments are slices
  /// of queued frames, which themselves splice in the callers' buffers).
  using MessageHandler = std::function<void(Payload message)>;
  using ConnectHandler = std::function<void(Result<void>)>;

  /// Queues a length-prefixed message onto the stream (by reference — the
  /// message buffer is shared, not copied, until the wire).
  void send_message(Payload message);
  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }
  /// Fires once when the handshake completes (client side).
  void set_connect_handler(ConnectHandler h) { on_connect_ = std::move(h); }

  bool established() const { return state_ == State::established; }
  /// Bytes accepted by send_message but not yet cumulatively acked.
  std::size_t unacked_bytes() const { return static_cast<std::size_t>(queued_end() - snd_una); }
  const simnet::Address& peer() const { return peer_; }
  const StreamStats& stats() const { return stats_; }

 private:
  friend class StreamEndpoint;
  enum class State { syn_sent, syn_received, established, closed };

  StreamConnection(StreamEndpoint* endpoint, simnet::Address peer, std::uint32_t conn_id);

  void start_connect();
  void on_packet(PacketType type, const StreamPacket& p);
  void on_data_segment(const StreamPacket& p);
  void on_ack(const StreamPacket& p);
  void pump();
  void send_segment(std::uint64_t seq, std::size_t len, bool retransmission);
  void send_control(PacketType type);
  void arm_rto();
  void on_rto();
  void deliver_contiguous();
  void parse_messages();
  std::size_t mss() const;
  /// Absolute stream offset one past the last queued byte.
  std::uint64_t queued_end() const { return frames_.empty() ? snd_una : frames_.back().end; }

  StreamEndpoint* endpoint_;
  simnet::Address peer_;
  std::uint32_t conn_id_;
  State state_ = State::closed;

  /// One queued message as framed on the stream: [u32 len][u64 flow][bytes].
  /// Segments slice the frames they cover and take the flow of the frame
  /// holding their first byte; a frame retires (observing delivery latency)
  /// once its last byte is acked.
  struct Frame {
    Payload bytes;          ///< header scratch + the caller's message buffer
    std::uint64_t end = 0;  ///< absolute stream offset one past the frame
    std::uint64_t flow = 0;
    SimTime enqueued = 0;
  };

  // --- send side ---
  std::deque<Frame> frames_;  ///< unacked frames, ascending by end
  std::uint64_t next_msg_seq_ = 1;
  std::uint64_t snd_una = 0;
  std::uint64_t snd_nxt = 0;
  double cwnd = 0;
  double ssthresh = 0;
  std::size_t peer_window_ = 0;
  int dup_acks_ = 0;
  RttEstimator rtt_;
  SimDuration rto_ = 0;
  simnet::TimerId rto_timer_;
  /// Outstanding RTT probe: (sequence that must be acked, send time).
  std::uint64_t rtt_seq_ = 0;
  SimTime rtt_sent_at_ = -1;

  // --- receive side ---
  std::uint64_t rcv_nxt = 0;
  std::map<std::uint64_t, Payload> out_of_order_;
  Payload receive_buffer_;  ///< contiguous bytes not yet parsed into messages

  MessageHandler on_message_;
  ConnectHandler on_connect_;
  StreamStats stats_;
  /// Global "stream.delivery_ms": send_message() to cumulative ack of the
  /// whole frame (the stream's sender-side delivery latency).
  obs::Histogram* delivery_ms_ = nullptr;
  /// Declared after stats_ so the sources unregister (folding into the
  /// registry's retained totals) before the fields they read are destroyed.
  obs::SourceGroup metrics_sources_;
};

/// Owns the port and demultiplexes connections, like a socket table.
class StreamEndpoint {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<StreamConnection>)>;

  StreamEndpoint(simnet::Host& host, std::uint16_t port);
  ~StreamEndpoint();

  StreamEndpoint(const StreamEndpoint&) = delete;
  StreamEndpoint& operator=(const StreamEndpoint&) = delete;

  /// Accepts incoming connections (server role).
  void listen(AcceptHandler handler) { on_accept_ = std::move(handler); }

  /// Initiates a connection to a listening StreamEndpoint.
  std::shared_ptr<StreamConnection> connect(const simnet::Address& dst);

  std::uint16_t port() const { return port_; }
  simnet::Address address() const { return {host_.name(), port_}; }
  simnet::Host& host() { return host_; }
  simnet::Engine& engine() { return engine_; }

 private:
  friend class StreamConnection;
  void on_packet(const simnet::Packet& packet);
  void raw_send(const simnet::Address& dst, Payload wire);

  simnet::Host& host_;
  simnet::Engine& engine_;
  std::uint16_t port_;
  AcceptHandler on_accept_;
  /// Keyed by (peer address, connection id).
  std::map<std::pair<simnet::Address, std::uint32_t>,
           std::shared_ptr<StreamConnection>>
      connections_;
  std::uint32_t next_conn_id_ = 1;
  Logger log_;
};

}  // namespace snipe::transport
