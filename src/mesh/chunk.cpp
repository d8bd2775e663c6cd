#include "mesh/chunk.hpp"

#include <cstring>

namespace hs::mesh {
namespace {

/// Little-endian byte packing for the control payloads. The record
/// payloads reuse io::BinLogWriter for the binlog half and only need the
/// small vitals header from here.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    for (char c : s) out_.push_back(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) { return raw(&v, 1); }
  bool u16(std::uint16_t& v) { return raw(&v, 2); }
  bool u32(std::uint32_t& v) { return raw(&v, 4); }
  bool u64(std::uint64_t& v) { return raw(&v, 8); }
  bool i64(std::int64_t& v) { return raw(&v, 8); }
  bool f64(double& v) { return raw(&v, 8); }
  bool str(std::string& s) {
    std::uint16_t n = 0;
    if (!u16(n) || bytes_.size() - pos_ < n) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (bytes_.size() - pos_ < n) return false;
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// Vitals header size: flags byte + battery double.
constexpr std::size_t kVitalsBytes = 9;

}  // namespace

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

MeshChunk make_chunk(ChunkKey key, ChunkKind kind, SimTime created_at,
                     std::vector<std::uint8_t> payload) {
  MeshChunk chunk;
  chunk.key = key;
  chunk.kind = kind;
  chunk.created_at = created_at;
  chunk.payload = std::make_shared<const ChunkPayload>(std::move(payload));
  chunk.checksum = chunk.payload->fnv;
  return chunk;
}

std::vector<std::uint8_t> encode_records_payload(const OffloadVitals& vitals,
                                                 const std::vector<std::uint8_t>& binlog) {
  ByteWriter w;
  std::uint8_t flags = 0;
  flags |= vitals.active ? 1 : 0;
  flags |= vitals.docked ? 2 : 0;
  flags |= vitals.worn ? 4 : 0;
  w.u8(flags);
  w.f64(vitals.battery_fraction);
  auto out = w.take();
  out.insert(out.end(), binlog.begin(), binlog.end());
  return out;
}

bool decode_records_payload(const std::vector<std::uint8_t>& payload, OffloadVitals& vitals,
                            std::vector<std::uint8_t>& binlog) {
  ByteReader r(payload);
  std::uint8_t flags = 0;
  if (!r.u8(flags) || !r.f64(vitals.battery_fraction)) return false;
  vitals.active = (flags & 1) != 0;
  vitals.docked = (flags & 2) != 0;
  vitals.worn = (flags & 4) != 0;
  binlog.assign(payload.begin() + static_cast<std::ptrdiff_t>(kVitalsBytes), payload.end());
  return true;
}

std::vector<std::uint8_t> encode_alert(const support::Alert& alert) {
  ByteWriter w;
  w.i64(alert.time);
  w.u8(static_cast<std::uint8_t>(alert.kind));
  w.u8(static_cast<std::uint8_t>(alert.severity));
  w.u16(alert.astronaut ? static_cast<std::uint16_t>(*alert.astronaut + 1) : 0);
  w.str(alert.message);
  return w.take();
}

bool decode_alert(const std::vector<std::uint8_t>& payload, support::Alert& out) {
  ByteReader r(payload);
  std::uint8_t kind = 0;
  std::uint8_t severity = 0;
  std::uint16_t astronaut = 0;
  if (!r.i64(out.time) || !r.u8(kind) || !r.u8(severity) || !r.u16(astronaut) ||
      !r.str(out.message)) {
    return false;
  }
  out.kind = static_cast<support::AlertKind>(kind);
  out.severity = static_cast<support::Severity>(severity);
  out.astronaut = astronaut == 0 ? std::nullopt
                                 : std::optional<std::size_t>{static_cast<std::size_t>(astronaut - 1)};
  return true;
}

std::vector<std::uint8_t> encode_proposal(const ProposalItem& item) {
  ByteWriter w;
  w.u64(item.id);
  w.i64(item.proposed_at);
  w.i64(item.ttl);
  w.u16(static_cast<std::uint16_t>(item.roster.size()));
  for (support::VoterId v : item.roster) w.u64(static_cast<std::uint64_t>(v));
  w.str(item.description);
  return w.take();
}

bool decode_proposal(const std::vector<std::uint8_t>& payload, ProposalItem& out) {
  ByteReader r(payload);
  std::uint16_t n = 0;
  if (!r.u64(out.id) || !r.i64(out.proposed_at) || !r.i64(out.ttl) || !r.u16(n)) return false;
  out.roster.clear();
  for (std::uint16_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!r.u64(v)) return false;
    out.roster.push_back(static_cast<support::VoterId>(v));
  }
  return r.str(out.description);
}

std::vector<std::uint8_t> encode_vote(const VoteItem& item) {
  ByteWriter w;
  w.u64(item.proposal);
  w.u64(static_cast<std::uint64_t>(item.voter));
  w.u8(item.approve ? 1 : 0);
  w.i64(item.cast_at);
  return w.take();
}

bool decode_vote(const std::vector<std::uint8_t>& payload, VoteItem& out) {
  ByteReader r(payload);
  std::uint64_t voter = 0;
  std::uint8_t approve = 0;
  if (!r.u64(out.proposal) || !r.u64(voter) || !r.u8(approve) || !r.i64(out.cast_at)) return false;
  out.voter = static_cast<support::VoterId>(voter);
  out.approve = approve != 0;
  return true;
}

}  // namespace hs::mesh
