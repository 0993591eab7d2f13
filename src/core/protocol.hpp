// Shared clustering-reduction protocol.
//
// Both Chameleon (at every C marker) and ACURDION (once, in MPI_Finalize)
// run the same hierarchical signature clustering: leaf cluster sets are
// reduced over a binomial tree with budget-enforcing shrinks at internal
// nodes, and the root broadcasts the final top-K table to everyone.
#pragma once

#include <cstdint>

#include "cluster/clusterset.hpp"
#include "trace/perf.hpp"

namespace cham::sim {
class Pmpi;
}

namespace cham::core {

struct ClusterProtocolStats {
  std::size_t num_callpaths = 0;  ///< valid at rank 0
  std::size_t effective_k = 0;    ///< valid at rank 0
};

/// Runs the reduction + broadcast; every rank returns its copy of the final
/// cluster table. Collective over all ranks of the world. The rank's local
/// work is timed into `perf.clustering_seconds` and charged to its virtual
/// clock; the cluster-table wire traffic it originates and absorbs goes to
/// `perf.bytes_encoded` / `perf.bytes_decoded`.
cluster::ClusterSet hierarchical_cluster(sim::Rank rank, sim::Pmpi& pmpi,
                                         const cluster::RankSignature& sig,
                                         std::size_t k,
                                         cluster::SelectPolicy policy,
                                         std::uint64_t seed,
                                         trace::PerfCounters& perf,
                                         ClusterProtocolStats* stats);

/// The members `rank` stands in for when it leads its cluster in `table`,
/// null when it does not (ScalaTraceTool::merge_leads' `members`).
[[nodiscard]] inline const trace::RankList* led_members(
    const cluster::ClusterSet& table, sim::Rank rank) {
  const cluster::ClusterEntry* entry = table.cluster_of(rank);
  return entry != nullptr && entry->lead == rank ? &entry->members : nullptr;
}

}  // namespace cham::core
