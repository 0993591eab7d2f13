#include "durable/snapshot.hpp"

#include "durable/wire.hpp"

namespace cham::durable {

namespace {
// Flag bits of the RankRecord bitfield byte.
constexpr std::uint8_t kFinalEpoch = 1u << 0;
constexpr std::uint8_t kFirstMarker = 1u << 1;
constexpr std::uint8_t kReclustering = 1u << 2;
constexpr std::uint8_t kLeadPhase = 1u << 3;
constexpr std::uint8_t kStoring = 1u << 4;

// Minimum encoded size of one rank record / one site entry, used to bound
// count fields by the bytes actually remaining.
constexpr std::size_t kMinRankRecordBytes = 8 + 4 + 1 + 8 + 8 + 8 + 8;
constexpr std::size_t kMinSiteBytes = 8 + 4;
}  // namespace

void encode_rank_record(trace::ByteWriter& w, const RankRecord& rec) {
  w.u64(rec.epoch);
  w.i32(rec.rank);
  const RankProtocol& p = rec.protocol;
  std::uint8_t flags = 0;
  if (rec.final_epoch) flags |= kFinalEpoch;
  if (p.first_marker) flags |= kFirstMarker;
  if (p.reclustering) flags |= kReclustering;
  if (p.lead_phase) flags |= kLeadPhase;
  if (rec.storing) flags |= kStoring;
  w.u8(flags);
  w.u64(p.old_callpath);
  w.u64(p.markers_seen);
  w.u64(p.auto_site);
  put_blob(w, rec.intra_wire);
}

RankRecord decode_rank_record(trace::ByteReader& r) {
  RankRecord rec;
  rec.epoch = r.u64();
  rec.rank = r.i32();
  RankProtocol& p = rec.protocol;
  const std::uint8_t flags = r.u8();
  rec.final_epoch = (flags & kFinalEpoch) != 0;
  p.first_marker = (flags & kFirstMarker) != 0;
  p.reclustering = (flags & kReclustering) != 0;
  p.lead_phase = (flags & kLeadPhase) != 0;
  rec.storing = (flags & kStoring) != 0;
  p.old_callpath = r.u64();
  p.markers_seen = r.u64();
  p.auto_site = r.u64();
  rec.intra_wire = get_blob(r);
  return rec;
}

std::vector<std::uint8_t> encode_snapshot(const ProtocolSnapshot& snap,
                                          std::uint64_t config_digest) {
  trace::ByteWriter w;
  w.u64(snap.epoch);
  w.u8(snap.finalized ? 1 : 0);
  put_blob(w, snap.online_wire);
  put_blob(w, snap.clusters_wire);
  for (const std::uint64_t c : snap.state_counts) w.u64(c);
  w.u64(snap.effective_k);
  w.u64(snap.num_callpaths);
  w.u32(static_cast<std::uint32_t>(snap.gap_ranks.size()));
  for (const std::int32_t rank : snap.gap_ranks) w.i32(rank);
  w.u32(static_cast<std::uint32_t>(snap.sites.size()));
  for (const auto& [id, name] : snap.sites) {
    w.u64(id);
    put_string(w, name);
  }
  w.u32(static_cast<std::uint32_t>(snap.ranks.size()));
  for (const auto& rec : snap.ranks) encode_rank_record(w, rec);
  return seal(kSnapshotMagic, kSnapshotVersion, config_digest, w.take());
}

ProtocolSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes,
                                 std::uint64_t config_digest) {
  const Envelope env =
      unseal(kSnapshotMagic, kSnapshotVersion, config_digest, bytes, "snapshot");
  trace::ByteReader r(env.payload);
  ProtocolSnapshot snap;
  snap.epoch = r.u64();
  snap.finalized = r.u8() != 0;
  snap.online_wire = get_blob(r);
  snap.clusters_wire = get_blob(r);
  for (std::uint64_t& c : snap.state_counts) c = r.u64();
  snap.effective_k = r.u64();
  snap.num_callpaths = r.u64();
  const std::uint32_t ngaps = r.u32();
  if (ngaps > r.remaining() / 4)
    throw trace::DecodeError("snapshot gap count exceeds buffer");
  snap.gap_ranks.reserve(ngaps);
  for (std::uint32_t i = 0; i < ngaps; ++i) snap.gap_ranks.push_back(r.i32());
  const std::uint32_t nsites = r.u32();
  if (nsites > r.remaining() / kMinSiteBytes)
    throw trace::DecodeError("snapshot site count exceeds buffer");
  snap.sites.reserve(nsites);
  for (std::uint32_t i = 0; i < nsites; ++i) {
    const std::uint64_t id = r.u64();
    snap.sites.emplace_back(id, get_string(r));
  }
  const std::uint32_t nranks = r.u32();
  if (nranks > r.remaining() / kMinRankRecordBytes)
    throw trace::DecodeError("snapshot rank count exceeds buffer");
  snap.ranks.reserve(nranks);
  for (std::uint32_t i = 0; i < nranks; ++i)
    snap.ranks.push_back(decode_rank_record(r));
  if (!r.exhausted())
    throw trace::DecodeError("snapshot has trailing bytes");
  return snap;
}

}  // namespace cham::durable
