// Ref-counted immutable buffer views for the zero-copy data plane.
//
// A Payload is an ordered list of segments, each a [offset, len) window into
// a shared immutable byte buffer.  Slicing and concatenation never copy
// bytes — a wire packet is a small shared header segment plus a slice of the
// sender's original message buffer, and receiver-side reassembly of adjacent
// slices of one buffer coalesces back into a single segment aliasing that
// buffer.  The only copies left on the data path are the ones that change
// bytes: the fault injector's corruption (copy-on-write, see cow_xor) and
// flattening a payload that could not be coalesced (e.g. after a corrupted
// fragment was cloned).
//
// Ownership rule (DESIGN.md §data-plane): whoever holds a Payload may read
// it forever and mutate it never.  Producers hand buffers over by value
// (`Payload(Bytes)`) and must not retain a mutable reference.  The one
// sanctioned mutation, cow_xor, writes in place only when the segment's
// buffer has a single owner; otherwise it clones that segment first.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace snipe {

class Payload {
 public:
  using Buffer = std::shared_ptr<const Bytes>;

  /// One window into a shared buffer.
  struct Segment {
    Buffer buf;
    std::size_t off = 0;
    std::size_t len = 0;
    const std::uint8_t* data() const { return buf->data() + off; }
  };

  Payload() = default;
  /// Wraps a byte vector (moved, not copied) as a single-segment payload.
  /// Implicit on purpose: every legacy `send(addr, Bytes{...})` call site
  /// stays valid.
  Payload(Bytes bytes);  // NOLINT(google-explicit-constructor)
  /// Views [off, off+len) of an existing shared buffer.
  Payload(Buffer buf, std::size_t off, std::size_t len);
  explicit Payload(Buffer buf);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of segments (0 for an empty payload).
  std::size_t segment_count() const { return nsegs_; }
  const Segment& segment(std::size_t i) const {
    assert(i < nsegs_);
    return i < kInlineSegments ? inline_[i] : more_[i - kInlineSegments];
  }
  bool contiguous() const { return nsegs_ <= 1; }

  /// Pointer to the bytes; only valid when contiguous() (callers on the
  /// delivery path flatten first — see flatten()).
  const std::uint8_t* data() const {
    assert(contiguous());
    return nsegs_ == 0 ? nullptr : inline_[0].data();
  }

  /// A view of [off, off+len); shares buffers, copies nothing.
  /// Requires off + len <= size().
  Payload slice(std::size_t off, std::size_t len) const;

  /// Appends another payload's segments.  A segment that continues the
  /// previous one (same buffer, adjacent offsets) is coalesced, so
  /// reassembling fragments sliced from one message buffer yields a single
  /// contiguous segment again.
  void append(const Payload& p);
  void append(Payload&& p);

  /// Collapses a multi-segment payload into one freshly-owned segment
  /// (no-op when already contiguous).  The only copy on the receive path,
  /// and only taken when coalescing failed.
  void flatten();

  std::uint8_t operator[](std::size_t i) const;

  /// Copies all bytes to `out` (which must hold size() bytes).
  void copy_to(std::uint8_t* out) const;
  /// Materializes a fresh byte vector (test/diagnostic convenience).
  Bytes to_bytes() const;

  /// XORs the byte at `pos` with `mask`, cloning the containing segment
  /// first unless this payload holds the buffer's only reference — the
  /// fault injector's copy-on-write hook.  Everyone else sharing the bytes
  /// keeps seeing the original.
  void cow_xor(std::size_t pos, std::uint8_t mask);

  bool operator==(const Payload& o) const;
  bool operator==(const Bytes& o) const;

 private:
  friend class PayloadCursor;  // view() pushes segments as it walks
  static constexpr std::size_t kInlineSegments = 2;

  void push_segment(Buffer buf, std::size_t off, std::size_t len);
  Segment& seg_at(std::size_t i) {
    return i < kInlineSegments ? inline_[i] : more_[i - kInlineSegments];
  }

  Segment inline_[kInlineSegments];
  std::vector<Segment> more_;  ///< segments beyond the inline pair (rare)
  std::size_t nsegs_ = 0;
  std::size_t size_ = 0;
};

/// String view of a payload's bytes (mirror of to_string(const Bytes&)).
std::string to_string(const Payload& p);

/// Builds a Payload from header fields plus existing payloads without
/// copying the latter: primitive writes are bump-allocated from the tail of
/// a thread-local scratch chunk that all writers share (a full chunk is
/// recycled once every reference to it drops), append() splices in shared
/// segments.  The bytes written between two splices stay one segment, so a
/// packet is a header segment plus its payload's segments.  Produces exactly
/// the byte sequence a ByteWriter would — the wire format is unchanged, only
/// its ownership is.
class PayloadWriter {
 public:
  /// How long the written bytes are kept.  Bytes held until an ack (stream
  /// frame headers) get a scratch of their own, so they pin only each
  /// other's chunks, never those of short-lived packet headers.
  enum class Lifetime { packet, held };

  explicit PayloadWriter(Lifetime lifetime = Lifetime::packet) : lifetime_(lifetime) {}
  PayloadWriter(const PayloadWriter&) = delete;
  PayloadWriter& operator=(const PayloadWriter&) = delete;
  /// A moved-from writer is empty and may be written again.
  PayloadWriter(PayloadWriter&& o) noexcept
      : lifetime_(o.lifetime_),
        chunk_(std::move(o.chunk_)),
        chunk_base_(std::exchange(o.chunk_base_, 0)),
        pending_(std::exchange(o.pending_, 0)),
        out_(std::exchange(o.out_, Payload{})) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(const std::uint8_t* p, std::size_t n);
  /// Length-prefixed (u32) string, as ByteWriter::str.
  void str(const std::string& s);
  /// Length-prefixed (u32) blob, spliced in by reference.
  void blob(const Payload& p) {
    u32(static_cast<std::uint32_t>(p.size()));
    append(p);
  }
  /// Length-prefixed (u32) blob copied into the scratch buffer — for small
  /// freshly-built byte vectors (bitmaps) not worth sharing.
  void blob(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  /// Splices `p`'s segments into the output without copying.
  void append(const Payload& p);

  std::size_t size() const { return out_.size() + pending_; }
  Payload take() &&;

 private:
  void freeze_pending();

  Lifetime lifetime_;
  std::shared_ptr<Bytes> chunk_;   ///< scratch chunk holding the pending bytes
  std::size_t chunk_base_ = 0;     ///< start of the pending bytes in chunk_
  std::size_t pending_ = 0;        ///< bytes written to chunk_ since freeze
  Payload out_;
};

/// Bounds-checked big-endian reads over a (possibly multi-segment) payload,
/// mirroring ByteReader.  The fast path reads straight from the current
/// segment; fields straddling a segment boundary take a byte-at-a-time
/// fallback.  view(n) returns a zero-copy sub-slice.
class PayloadCursor {
 public:
  explicit PayloadCursor(const Payload& p) : p_(p) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::string> str();
  /// Length-prefixed (u32) blob as a zero-copy slice.
  Result<Payload> blob();
  /// The next n bytes as a zero-copy slice.
  Result<Payload> view(std::size_t n);

  std::size_t remaining() const { return p_.size() - off_; }

 private:
  bool read(std::uint8_t* out, std::size_t n);

  const Payload& p_;
  std::size_t off_ = 0;
  std::size_t seg_ = 0;      ///< segment containing off_
  std::size_t seg_off_ = 0;  ///< offset of seg_'s first byte in the payload
};

}  // namespace snipe
