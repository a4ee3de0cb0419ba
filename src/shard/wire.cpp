#include "shard/wire.h"

#include <cstring>

#include "common/pool.h"

namespace cameo::shard {

namespace {

// ---- little-endian fixed-width writer / bounds-checked reader ----

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& buf) : buf_(buf) {}

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { Raw(&v, sizeof v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }

  template <typename T>
  void Column(const std::vector<T>& col) {
    static_assert(sizeof(T) == 8);
    const std::size_t n = buf_.size();
    buf_.resize(n + col.size() * 8);
    if (!col.empty()) std::memcpy(buf_.data() + n, col.data(), col.size() * 8);
  }

 private:
  void Raw(const void* p, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);  // host is little-endian (x86/arm64)
  }

  std::vector<std::uint8_t>& buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t& v) { return Raw(&v, sizeof v); }
  bool U16(std::uint16_t& v) { return Raw(&v, sizeof v); }
  bool U32(std::uint32_t& v) { return Raw(&v, sizeof v); }
  bool U64(std::uint64_t& v) { return Raw(&v, sizeof v); }
  bool I64(std::int64_t& v) {
    std::uint64_t u;
    if (!U64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool F64(double& v) {
    std::uint64_t bits;
    if (!U64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  template <typename T>
  bool Column(std::vector<T>& col, std::size_t rows) {
    static_assert(sizeof(T) == 8);
    if (size_ - pos_ < rows * 8) return false;
    col.resize(rows);
    if (rows > 0) std::memcpy(col.data(), data_ + pos_, rows * 8);
    pos_ += rows * 8;
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool Raw(void* p, std::size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- XXH64 (seed 0), the frame checksum ----
//
// The reference algorithm, scalar and word-at-a-time: four 64-bit lanes over
// 32-byte stripes, then an 8/4/1-byte tail and the final avalanche. Each
// round and the avalanche are bijections, so a change confined to one tail
// word, and any change to the stored sum, is always caught; a change inside
// the stripes escapes only on a 2^-64 lane-merge collision.

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

std::uint64_t Rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);  // host is little-endian (x86/arm64)
  return v;
}

std::uint64_t Round(std::uint64_t acc, std::uint64_t input) {
  return Rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t MergeRound(std::uint64_t h, std::uint64_t lane) {
  return (h ^ Round(0, lane)) * kP1 + kP4;
}

/// Writes the fixed-size header; payload length is patched in FinishFrame
/// once the payload has been written, and the session fields stay zero until
/// StampSession patches them.
void BeginFrame(std::vector<std::uint8_t>& buf, FrameKind kind) {
  buf.clear();
  Writer w(buf);
  w.U32(kWireMagic);
  w.U8(static_cast<std::uint8_t>(kind));
  w.U8(kWireVersion);
  w.U16(0);  // reserved
  w.U64(0);  // payload_len placeholder
  w.U64(0);  // session seq (bare frame)
  w.U64(0);  // session ack (bare frame)
}

void FinishFrame(std::vector<std::uint8_t>& buf) {
  const std::uint64_t payload_len = buf.size() - kWireHeaderSize;
  std::memcpy(buf.data() + 8, &payload_len, sizeof payload_len);
  const std::uint64_t sum = Xxh64(buf.data(), buf.size());
  Writer w(buf);
  w.U64(sum);
}

/// Validates magic/version/length/checksum; on success returns a payload
/// reader and the frame kind.
bool OpenFrame(const WireFrame& frame, FrameKind& kind, Reader& payload) {
  const std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize + kWireTrailerSize) return false;
  Reader h(b.data(), kWireHeaderSize);
  std::uint32_t magic;
  std::uint8_t k, version;
  std::uint16_t reserved;
  std::uint64_t payload_len, seq, ack;
  if (!h.U32(magic) || !h.U8(k) || !h.U8(version) || !h.U16(reserved) ||
      !h.U64(payload_len) || !h.U64(seq) || !h.U64(ack)) {
    return false;
  }
  if (magic != kWireMagic || version != kWireVersion) return false;
  if (k != static_cast<std::uint8_t>(FrameKind::kData) &&
      k != static_cast<std::uint8_t>(FrameKind::kReply) &&
      k != static_cast<std::uint8_t>(FrameKind::kAck)) {
    return false;
  }
  if (payload_len != b.size() - kWireHeaderSize - kWireTrailerSize) {
    return false;
  }
  std::uint64_t sum;
  std::memcpy(&sum, b.data() + b.size() - kWireTrailerSize, sizeof sum);
  if (sum != Xxh64(b.data(), b.size() - kWireTrailerSize)) return false;
  kind = static_cast<FrameKind>(k);
  payload = Reader(b.data() + kWireHeaderSize, b.size() - kWireHeaderSize -
                                                   kWireTrailerSize);
  return true;
}

}  // namespace

std::uint64_t Xxh64(const std::uint8_t* p, std::size_t n) {
  const std::uint8_t* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(MergeRound(MergeRound(MergeRound(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof w);
    h = Rotl(h ^ (w * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = Rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

void EncodeMessage(const Message& m, WireFrame& frame) {
  BeginFrame(frame.bytes, FrameKind::kData);
  Writer w(frame.bytes);
  // Message envelope.
  w.I64(m.id.value);
  w.I64(m.target.value);
  w.I64(m.sender.value);
  w.I64(m.event_time);
  w.I64(m.enqueue_time);
  // PriorityContext: the full §5.3 layout -- the receiving shard's scheduler
  // orders this message without any shared-memory state.
  w.I64(m.pc.id.value);
  w.I64(m.pc.pri_local);
  w.I64(m.pc.pri_global);
  w.I64(m.pc.frontier_progress);
  w.I64(m.pc.frontier_time);
  w.I64(m.pc.latency_constraint);
  w.I64(m.pc.job.value);
  w.U8(m.pc.has_token ? 1 : 0);
  w.I64(m.pc.token_tag);
  w.I64(m.pc.token_interval);
  // EventBatch: progress watermark, synthetic face, then the columns.
  w.I64(m.batch.progress);
  w.I64(m.batch.synthetic_count);
  w.U64(m.batch.keys.size());
  w.Column(m.batch.keys);
  w.Column(m.batch.values);
  w.Column(m.batch.times);
  FinishFrame(frame.bytes);
}

void EncodeReply(OperatorId sender, OperatorId from, const ReplyContext& rc,
                 WireFrame& frame) {
  BeginFrame(frame.bytes, FrameKind::kReply);
  Writer w(frame.bytes);
  w.I64(sender.value);
  w.I64(from.value);
  w.I64(rc.cost_m);
  w.I64(rc.cost_path);
  w.I64(rc.queueing_delay);
  w.U8(rc.valid ? 1 : 0);
  FinishFrame(frame.bytes);
}

void EncodeAck(WireFrame& frame) {
  BeginFrame(frame.bytes, FrameKind::kAck);
  FinishFrame(frame.bytes);
}

void StampSession(WireFrame& frame, std::uint64_t seq, std::uint64_t ack) {
  std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize + kWireTrailerSize) return;
  std::memcpy(b.data() + kWireSeqOffset, &seq, sizeof seq);
  std::memcpy(b.data() + kWireAckOffset, &ack, sizeof ack);
  const std::uint64_t sum = Xxh64(b.data(), b.size() - kWireTrailerSize);
  std::memcpy(b.data() + b.size() - kWireTrailerSize, &sum, sizeof sum);
}

bool PeekSession(const WireFrame& frame, std::uint64_t& seq,
                 std::uint64_t& ack) {
  const std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize) return false;
  std::memcpy(&seq, b.data() + kWireSeqOffset, sizeof seq);
  std::memcpy(&ack, b.data() + kWireAckOffset, sizeof ack);
  return true;
}

bool ValidateFrame(const WireFrame& frame) {
  FrameKind kind;
  Reader r(nullptr, 0);
  return OpenFrame(frame, kind, r);
}

bool PeekFrameKind(const WireFrame& frame, FrameKind& kind) {
  if (frame.bytes.size() < kWireHeaderSize) return false;
  const std::uint8_t k = frame.bytes[4];
  if (k != static_cast<std::uint8_t>(FrameKind::kData) &&
      k != static_cast<std::uint8_t>(FrameKind::kReply) &&
      k != static_cast<std::uint8_t>(FrameKind::kAck)) {
    return false;
  }
  kind = static_cast<FrameKind>(k);
  return true;
}

bool DecodeMessage(const WireFrame& frame, Message& out) {
  FrameKind kind;
  Reader r(nullptr, 0);
  if (!OpenFrame(frame, kind, r) || kind != FrameKind::kData) return false;

  // Decode into a local first: `out` must stay untouched on failure, and no
  // pooled column capacity is adopted until the row count has been validated
  // against the remaining payload.
  Message m;
  std::uint8_t has_token;
  std::uint64_t rows;
  if (!r.I64(m.id.value) || !r.I64(m.target.value) || !r.I64(m.sender.value) ||
      !r.I64(m.event_time) || !r.I64(m.enqueue_time) ||
      !r.I64(m.pc.id.value) || !r.I64(m.pc.pri_local) ||
      !r.I64(m.pc.pri_global) || !r.I64(m.pc.frontier_progress) ||
      !r.I64(m.pc.frontier_time) || !r.I64(m.pc.latency_constraint) ||
      !r.I64(m.pc.job.value) || !r.U8(has_token) || !r.I64(m.pc.token_tag) ||
      !r.I64(m.pc.token_interval) || !r.I64(m.batch.progress) ||
      !r.I64(m.batch.synthetic_count) || !r.U64(rows)) {
    return false;
  }
  m.pc.has_token = has_token != 0;
  // Exactly three 8-byte columns must remain. The division guard rejects a
  // corrupt row count large enough to wrap `rows * 24`.
  if (rows > r.remaining() / 24 || r.remaining() != rows * 24) return false;
  if (rows > 0) {
    // Adopt pooled capacity through the batch's own Append pathway, then
    // bulk-copy: the first Append swaps in recycled column buffers.
    m.batch.Append(0, 0, 0);
    m.batch.keys.clear();
    m.batch.values.clear();
    m.batch.times.clear();
    if (!r.Column(m.batch.keys, rows) || !r.Column(m.batch.values, rows) ||
        !r.Column(m.batch.times, rows)) {
      m.batch.Recycle();  // hand adopted capacity straight back
      return false;
    }
  }
  out = std::move(m);
  return true;
}

bool DecodeReply(const WireFrame& frame, WireReply& out) {
  FrameKind kind;
  Reader r(nullptr, 0);
  if (!OpenFrame(frame, kind, r) || kind != FrameKind::kReply) return false;
  WireReply reply;
  std::uint8_t valid;
  if (!r.I64(reply.sender.value) || !r.I64(reply.from.value) ||
      !r.I64(reply.rc.cost_m) || !r.I64(reply.rc.cost_path) ||
      !r.I64(reply.rc.queueing_delay) || !r.U8(valid) || r.remaining() != 0) {
    return false;
  }
  reply.rc.valid = valid != 0;
  out = reply;
  return true;
}

WireFrame AcquireFrame() {
  WireFrame f = RecycleStash<WireFrame>::Global().Take().value_or(WireFrame{});
  f.bytes.clear();
  f.deliver_at = 0;
  return f;
}

void ReleaseFrame(WireFrame frame) {
  RecycleStash<WireFrame>::Global().Put(std::move(frame));
}

}  // namespace cameo::shard
