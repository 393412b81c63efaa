#include "util/payload.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

namespace snipe {

namespace {

// ---------------------------------------------------------------------------
// Shared header scratch for PayloadWriter.
//
// Every writer on a thread bump-allocates its header bytes from the tail of
// one scratch chunk, so a packet header costs a few bytes of a shared buffer
// rather than a buffer of its own.  A full chunk is retired; it is recycled
// once the scratch's reference is the only one left (use_count() == 1),
// i.e. every Payload that viewed it has been dropped.  So a chunk the
// scratch still holds always has use_count() >= 2 while anyone views it, and
// Payload::cow_xor never mutates scratch bytes in place.
//
// One long-lived header would pin a whole chunk of short-lived ones, so
// bytes held until an ack (Lifetime::held, the stream's frame headers) come
// from a second scratch and pin only each other.  The retired list is
// probed a few chunks at a time, rotating pinned chunks to its back, and
// capped: past the cap the oldest chunk is handed over to its remaining
// viewers, which free it when they drop.
constexpr std::size_t kChunkCapacity = 4096;
constexpr std::size_t kRetiredProbes = 4;
constexpr std::size_t kMaxRetired = 256;

struct Scratch {
  std::shared_ptr<Bytes> chunk;  ///< the chunk whose tail writers share
  std::deque<std::shared_ptr<Bytes>> retired;

  /// Makes `chunk` a chunk with room for `need` more bytes.
  void reserve(std::size_t need) {
    if (chunk != nullptr && chunk->size() + need <= chunk->capacity()) return;
    if (chunk != nullptr) {
      retired.push_back(std::move(chunk));
      if (retired.size() > kMaxRetired) retired.pop_front();
    }
    for (std::size_t i = 0; i < std::min(retired.size(), kRetiredProbes); ++i) {
      std::shared_ptr<Bytes> c = std::move(retired.front());
      retired.pop_front();
      if (c.use_count() == 1 && c->capacity() >= need) {
        c->clear();
        chunk = std::move(c);
        return;
      }
      retired.push_back(std::move(c));
    }
    chunk = std::make_shared<Bytes>();
    chunk->reserve(std::max(need, kChunkCapacity));
  }
};

Scratch& scratch(PayloadWriter::Lifetime lifetime) {
  thread_local Scratch s[2];
  return s[lifetime == PayloadWriter::Lifetime::held ? 1 : 0];
}

}  // namespace

// ---------------------------------------------------------------------------
// Payload

Payload::Payload(Bytes bytes) {
  std::size_t n = bytes.size();
  if (n == 0) return;
  push_segment(std::make_shared<const Bytes>(std::move(bytes)), 0, n);
}

Payload::Payload(Buffer buf, std::size_t off, std::size_t len) {
  assert(buf != nullptr && off + len <= buf->size());
  if (len == 0) return;
  push_segment(std::move(buf), off, len);
}

Payload::Payload(Buffer buf) {
  if (buf == nullptr || buf->empty()) return;
  std::size_t n = buf->size();
  push_segment(std::move(buf), 0, n);
}

void Payload::push_segment(Buffer buf, std::size_t off, std::size_t len) {
  if (len == 0) return;
  // Coalesce: a segment that continues the previous window of the same
  // buffer extends it instead of growing the list.
  if (nsegs_ > 0) {
    Segment& last = seg_at(nsegs_ - 1);
    if (last.buf == buf && last.off + last.len == off) {
      last.len += len;
      size_ += len;
      return;
    }
  }
  if (nsegs_ < kInlineSegments) {
    inline_[nsegs_] = Segment{std::move(buf), off, len};
  } else {
    more_.push_back(Segment{std::move(buf), off, len});
  }
  ++nsegs_;
  size_ += len;
}

Payload Payload::slice(std::size_t off, std::size_t len) const {
  assert(off + len <= size_);
  Payload out;
  std::size_t skip = off;
  for (std::size_t i = 0; i < nsegs_ && len > 0; ++i) {
    const Segment& s = segment(i);
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    std::size_t take = std::min(len, s.len - skip);
    out.push_segment(s.buf, s.off + skip, take);
    skip = 0;
    len -= take;
  }
  return out;
}

void Payload::append(const Payload& p) {
  for (std::size_t i = 0; i < p.nsegs_; ++i) {
    const Segment& s = p.segment(i);
    push_segment(s.buf, s.off, s.len);
  }
}

void Payload::append(Payload&& p) {
  if (nsegs_ == 0) {
    *this = std::move(p);
    return;
  }
  for (std::size_t i = 0; i < p.nsegs_; ++i) {
    Segment& s = p.seg_at(i);
    push_segment(std::move(s.buf), s.off, s.len);
  }
  p.more_.clear();
  p.nsegs_ = 0;
  p.size_ = 0;
}

void Payload::flatten() {
  if (nsegs_ <= 1) return;
  Bytes flat(size_);
  copy_to(flat.data());
  std::size_t n = flat.size();
  more_.clear();
  nsegs_ = 0;
  size_ = 0;
  inline_[0] = Segment{};
  inline_[1] = Segment{};
  push_segment(std::make_shared<const Bytes>(std::move(flat)), 0, n);
}

std::uint8_t Payload::operator[](std::size_t i) const {
  assert(i < size_);
  for (std::size_t s = 0; s < nsegs_; ++s) {
    const Segment& seg = segment(s);
    if (i < seg.len) return seg.data()[i];
    i -= seg.len;
  }
  return 0;  // unreachable given the assert
}

void Payload::copy_to(std::uint8_t* out) const {
  for (std::size_t i = 0; i < nsegs_; ++i) {
    const Segment& s = segment(i);
    std::memcpy(out, s.data(), s.len);
    out += s.len;
  }
}

Bytes Payload::to_bytes() const {
  Bytes out(size_);
  copy_to(out.data());
  return out;
}

void Payload::cow_xor(std::size_t pos, std::uint8_t mask) {
  assert(pos < size_);
  for (std::size_t i = 0; i < nsegs_; ++i) {
    Segment& s = seg_at(i);
    if (pos >= s.len) {
      pos -= s.len;
      continue;
    }
    if (s.buf.use_count() != 1) {
      // Shared bytes (another payload, a retransmit buffer, or the writer
      // scratch still references them): clone just this segment.
      auto clone = std::make_shared<Bytes>(s.buf->begin() + static_cast<std::ptrdiff_t>(s.off),
                                           s.buf->begin() + static_cast<std::ptrdiff_t>(s.off + s.len));
      s.buf = clone;
      s.off = 0;
    }
    // Sole owner now; mutating in place is invisible to everyone else.
    const_cast<Bytes&>(*s.buf)[s.off + pos] ^= mask;
    return;
  }
}

bool Payload::operator==(const Payload& o) const {
  if (size_ != o.size_) return false;
  std::size_t i = 0, j = 0, ioff = 0, joff = 0;
  std::size_t left = size_;
  while (left > 0) {
    const Segment& a = segment(i);
    const Segment& b = o.segment(j);
    std::size_t n = std::min({a.len - ioff, b.len - joff, left});
    if (std::memcmp(a.data() + ioff, b.data() + joff, n) != 0) return false;
    ioff += n;
    joff += n;
    left -= n;
    if (ioff == a.len) { ++i; ioff = 0; }
    if (joff == b.len) { ++j; joff = 0; }
  }
  return true;
}

bool Payload::operator==(const Bytes& o) const {
  if (size_ != o.size()) return false;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nsegs_; ++i) {
    const Segment& s = segment(i);
    if (std::memcmp(s.data(), o.data() + pos, s.len) != 0) return false;
    pos += s.len;
  }
  return true;
}

std::string to_string(const Payload& p) {
  std::string out(p.size(), '\0');
  p.copy_to(reinterpret_cast<std::uint8_t*>(out.data()));
  return out;
}

// ---------------------------------------------------------------------------
// PayloadWriter

void PayloadWriter::freeze_pending() {
  if (pending_ == 0) return;
  out_.append(Payload(Payload::Buffer(chunk_), chunk_base_, pending_));
  chunk_base_ += pending_;
  pending_ = 0;
}

void PayloadWriter::raw(const std::uint8_t* p, std::size_t n) {
  if (n == 0) return;
  Scratch& s = scratch(lifetime_);
  // The writer holds the lease on the scratch tail while its pending bytes
  // end there.  If another writer has written since, or the field does not
  // fit, the pending bytes move to the tail (of a fresh chunk if need be):
  // the bytes of one packet header always form one segment.
  bool holds_tail = chunk_ != nullptr && chunk_ == s.chunk &&
                    chunk_->size() == chunk_base_ + pending_ &&
                    chunk_->size() + n <= chunk_->capacity();
  if (!holds_tail) {
    std::shared_ptr<Bytes> old = std::move(chunk_);
    s.reserve(pending_ + n);
    Bytes& tail = *s.chunk;
    std::size_t base = tail.size();
    // Within capacity, so `old` (possibly this same chunk) keeps its data.
    tail.resize(base + pending_);
    if (pending_ > 0) std::memcpy(tail.data() + base, old->data() + chunk_base_, pending_);
    chunk_ = s.chunk;
    chunk_base_ = base;
  }
  chunk_->insert(chunk_->end(), p, p + n);
  pending_ += n;
}

void PayloadWriter::u8(std::uint8_t v) { raw(&v, 1); }

void PayloadWriter::u16(std::uint16_t v) {
  std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  raw(b, 2);
}

void PayloadWriter::u32(std::uint32_t v) {
  std::uint8_t b[4] = {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
                       static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  raw(b, 4);
}

void PayloadWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  raw(b, 8);
}

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void PayloadWriter::append(const Payload& p) {
  if (p.empty()) return;
  freeze_pending();
  out_.append(p);
}

Payload PayloadWriter::take() && {
  freeze_pending();
  chunk_.reset();
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// PayloadCursor

bool PayloadCursor::read(std::uint8_t* out, std::size_t n) {
  if (remaining() < n) return false;
  while (n > 0) {
    const Payload::Segment& s = p_.segment(seg_);
    std::size_t in_seg = off_ - seg_off_;
    if (in_seg == s.len) {
      seg_off_ += s.len;
      ++seg_;
      continue;
    }
    std::size_t take = std::min(n, s.len - in_seg);
    std::memcpy(out, s.data() + in_seg, take);
    out += take;
    off_ += take;
    n -= take;
  }
  return true;
}

namespace {
Error short_read() { return Error{Errc::corrupt, "short read"}; }
}  // namespace

Result<std::uint8_t> PayloadCursor::u8() {
  std::uint8_t b;
  if (!read(&b, 1)) return short_read();
  return b;
}

Result<std::uint16_t> PayloadCursor::u16() {
  std::uint8_t b[2];
  if (!read(b, 2)) return short_read();
  return static_cast<std::uint16_t>((b[0] << 8) | b[1]);
}

Result<std::uint32_t> PayloadCursor::u32() {
  std::uint8_t b[4];
  if (!read(b, 4)) return short_read();
  return (static_cast<std::uint32_t>(b[0]) << 24) | (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | b[3];
}

Result<std::uint64_t> PayloadCursor::u64() {
  std::uint8_t b[8];
  if (!read(b, 8)) return short_read();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

Result<std::string> PayloadCursor::str() {
  auto n = u32();
  if (!n) return n.error();
  if (remaining() < n.value()) return short_read();
  std::string s(n.value(), '\0');
  read(reinterpret_cast<std::uint8_t*>(s.data()), n.value());
  return s;
}

Result<Payload> PayloadCursor::view(std::size_t n) {
  if (remaining() < n) return short_read();
  // Walks on from the current segment, as read() does, so taking views one
  // after another costs O(segments) in all rather than per view.
  Payload out;
  while (n > 0) {
    const Payload::Segment& s = p_.segment(seg_);
    std::size_t in_seg = off_ - seg_off_;
    if (in_seg == s.len) {
      seg_off_ += s.len;
      ++seg_;
      continue;
    }
    std::size_t take = std::min(n, s.len - in_seg);
    out.push_segment(s.buf, s.off + in_seg, take);
    off_ += take;
    n -= take;
  }
  return out;
}

Result<Payload> PayloadCursor::blob() {
  auto n = u32();
  if (!n) return n.error();
  return view(n.value());
}

}  // namespace snipe
