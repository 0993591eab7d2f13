#include "core/protocol.hpp"

#include "sim/mpi.hpp"
#include "support/logging.hpp"

namespace cham::core {

namespace {
constexpr int kClusterTag = 0x7A03;
/// Tool-comm tag for orphaned subtree tables re-homed after a mid-reduction
/// crash (see the salvage round in hierarchical_cluster).
constexpr int kSalvageTag = 0x7A04;
}  // namespace

cluster::ClusterSet hierarchical_cluster(sim::Rank rank, sim::Pmpi& pmpi,
                                         const cluster::RankSignature& sig,
                                         std::size_t k,
                                         cluster::SelectPolicy policy,
                                         std::uint64_t seed,
                                         trace::PerfCounters& perf,
                                         ClusterProtocolStats* stats) {
  cluster::ClusterSet mine = cluster::ClusterSet::leaf(rank, sig);
  sim::Engine& eng = pmpi.engine();
  const bool ft = eng.fault_injection_enabled();

  const auto idx = static_cast<std::size_t>(rank);
  const auto p = static_cast<std::size_t>(pmpi.size());
  // Set when the binomial parent died before accepting this subtree's
  // table; the salvage round below re-homes it at the surviving root.
  bool orphaned = false;
  for (std::size_t mask = 1; mask < p; mask <<= 1) {
    if (idx & mask) {
      std::vector<std::uint8_t> payload;
      {
        const trace::ToolSection section(perf.clustering_seconds, pmpi);
        payload = mine.encode();
      }
      perf.bytes_encoded += payload.size();
      const sim::CommResult sent = pmpi.send_bytes(
          static_cast<sim::Rank>(idx - mask), kClusterTag, std::move(payload));
      if (ft && sent != sim::CommResult::kOk) orphaned = true;
      break;
    }
    if (idx + mask < p) {
      const auto child = static_cast<sim::Rank>(idx + mask);
      if (ft && eng.is_failed(child)) {
        // Dead child: drain its table if it was sent before the crash,
        // otherwise its subtree is routed around (survivors in it will
        // re-home themselves via the salvage round).
        std::vector<std::uint8_t> payload;
        if (pmpi.try_recv_bytes(child, kClusterTag, &payload)) {
          perf.bytes_decoded += payload.size();
          const trace::ToolSection section(perf.clustering_seconds, pmpi);
          mine.absorb(cluster::ClusterSet::decode(payload));
          if (mine.total_clusters() > k) mine.shrink(k, policy, seed);
        }
        continue;
      }
      sim::RecvStatus status;
      std::vector<std::uint8_t> payload = pmpi.recv_bytes(
          static_cast<sim::Rank>(idx + mask), kClusterTag, &status);
      if (status.peer_failed) continue;  // child died before sending
      perf.bytes_decoded += payload.size();
      const trace::ToolSection section(perf.clustering_seconds, pmpi);
      mine.absorb(cluster::ClusterSet::decode(payload));
      if (mine.total_clusters() > k) mine.shrink(k, policy, seed);
    }
  }

  sim::Rank root = 0;
  if (ft) {
    // Salvage round: orphans whose parent died mid-reduction re-send their
    // table to the surviving root. The vote is an allreduce so every
    // survivor takes the same branch; the barrier guarantees all salvage
    // sends are queued (each orphan sends before arriving at it) so the
    // root can drain them non-blockingly.
    const std::uint64_t salvage_total =
        pmpi.allreduce_u64(orphaned ? 1 : 0, sim::ReduceOp::kSum);
    if (salvage_total > 0) {
      const sim::Rank refreshed = eng.live_ranks().front();
      if (orphaned && rank != refreshed) {
        std::vector<std::uint8_t> payload;
        {
          const trace::ToolSection section(perf.clustering_seconds, pmpi);
          payload = mine.encode();
        }
        perf.bytes_encoded += payload.size();
        pmpi.send_bytes(refreshed, kSalvageTag, std::move(payload));
        mine = cluster::ClusterSet{};  // handed off
      }
      pmpi.barrier();
      if (rank == eng.live_ranks().front()) {
        std::vector<std::uint8_t> payload;
        while (pmpi.try_recv_bytes(sim::kAnySource, kSalvageTag, &payload)) {
          perf.bytes_decoded += payload.size();
          const trace::ToolSection section(perf.clustering_seconds, pmpi);
          mine.absorb(cluster::ClusterSet::decode(payload));
          if (mine.total_clusters() > k) mine.shrink(k, policy, seed);
        }
      }
    }
    // Consistent across survivors: no crash point sits between the
    // collectives above and the broadcast below.
    root = eng.live_ranks().front();
  }

  std::vector<std::uint8_t> table;
  if (rank == root) {
    const trace::ToolSection section(perf.clustering_seconds, pmpi);
    mine.shrink(k, policy, seed);
    if (stats != nullptr) {
      stats->num_callpaths = mine.num_callpaths();
      stats->effective_k = mine.total_clusters();
    }
    table = mine.encode();
    perf.bytes_encoded += table.size();
  }
  table = pmpi.bcast_bytes(std::move(table), root);
  if (rank != root) perf.bytes_decoded += table.size();

  const trace::ToolSection section(perf.clustering_seconds, pmpi);
  return cluster::ClusterSet::decode(table);
}

}  // namespace cham::core
