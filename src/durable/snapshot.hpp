// Versioned epoch snapshots of the full Chameleon protocol state.
//
// A snapshot is everything a resumed run needs that is not derivable by
// replaying the (deterministic) workload: the home rank's online trace, the
// cluster table, absolute epoch counters, the set of ranks already mourned
// with GAP nodes, the call-site intern table, and one RankRecord per live
// rank capturing its protocol flags and partially folded intra-node trace.
// Snapshots are published crash-atomically (wire.hpp) and checksummed; any
// mismatch — truncation, bit flips, future versions, a different run's
// config digest — surfaces as trace::DecodeError.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/serialize.hpp"

namespace cham::durable {

inline constexpr std::uint16_t kSnapshotVersion = 1;

/// A rank's position in the marker protocol: the Algorithm 1 flags and the
/// counters a resumed rank re-adopts to continue where it stopped.
/// Chameleon's per-rank slot embeds one, and the journal stores it as is.
struct RankProtocol {
  bool first_marker = false;
  bool reclustering = true;
  bool lead_phase = false;  ///< between a clustering and its flush
  std::uint64_t old_callpath = 0;
  std::uint64_t markers_seen = 0;
  std::uint64_t auto_site = 0;  ///< §VII auto-detected marker site, 0 = none
};

/// Per-rank state at an epoch boundary. Written by the owning rank fiber
/// right after it finishes its epoch work (single-writer, so journal
/// appends never race under ChamRace) and re-adopted verbatim on resume —
/// or by a promoted lead restoring a dead lead's trace.
struct RankRecord {
  std::uint64_t epoch = 0;  ///< epochs processed when this was captured
  std::int32_t rank = 0;
  bool final_epoch = false;  ///< captured by finalize, not a marker epoch
  bool storing = true;
  RankProtocol protocol;
  /// encode_trace() image of the rank's partial intra-node trace.
  std::vector<std::uint8_t> intra_wire;
};

struct ProtocolSnapshot {
  std::uint64_t epoch = 0;   ///< epochs committed when taken
  bool finalized = false;    ///< true only for post-finalize snapshots
  /// encode_trace() image of the home rank's online trace.
  std::vector<std::uint8_t> online_wire;
  /// ClusterSet::encode() image of the current cluster table.
  std::vector<std::uint8_t> clusters_wire;
  std::array<std::uint64_t, 4> state_counts{};  ///< cumulative AT/C/L/F
  std::uint64_t effective_k = 0;
  std::uint64_t num_callpaths = 0;
  std::vector<std::int32_t> gap_ranks;  ///< dead leads already mourned
  std::vector<std::pair<std::uint64_t, std::string>> sites;
  std::vector<RankRecord> ranks;  ///< live ranks at `epoch`
};

void encode_rank_record(trace::ByteWriter& w, const RankRecord& rec);
RankRecord decode_rank_record(trace::ByteReader& r);

/// Sealed (enveloped) snapshot image ready for write_file_atomic.
std::vector<std::uint8_t> encode_snapshot(const ProtocolSnapshot& snap,
                                          std::uint64_t config_digest);
/// Verify the envelope against `config_digest` and decode. Throws
/// trace::DecodeError on any corruption or version skew.
ProtocolSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes,
                                 std::uint64_t config_digest);

}  // namespace cham::durable
