// Shared clustering-reduction protocol.
//
// Both Chameleon (at every C marker) and ACURDION (once, in MPI_Finalize)
// run the same hierarchical signature clustering: leaf cluster sets are
// reduced over a binomial tree with budget-enforcing shrinks at internal
// nodes, and the root broadcasts the final top-K table to everyone.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

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

/// A tool's one-slot cache of the broadcast cluster table: the last wire
/// image and the immutable table it decodes to. Every rank that received
/// the same bytes shares that one table instead of decoding a private copy.
/// One slot is enough: a rank decodes table N+1 only after every live rank
/// has arrived at its broadcast, so all of them are done with table N (and
/// a rank that still holds table N keeps it alive through its pointer).
class SharedTableCache {
 public:
  /// The table `bytes` decode to: the cached one when they equal the
  /// cached image, otherwise decoded once, under the lock, into the slot.
  /// Malformed bytes throw the decoder's DecodeError and leave the slot as
  /// it was.
  std::shared_ptr<const cluster::ClusterSet> get(
      const std::vector<std::uint8_t>& bytes);

  /// Decodes performed so far: one per change of broadcast image.
  [[nodiscard]] std::uint64_t decodes() const;

 private:
  mutable std::mutex m_;
  std::vector<std::uint8_t> image_;
  std::shared_ptr<const cluster::ClusterSet> table_;
  std::uint64_t decodes_ = 0;
};

/// Runs the reduction + broadcast; every rank returns the final cluster
/// table, shared through `tables` with every rank that received the same
/// bytes. Collective over all ranks of the world. The rank's local work is
/// timed into `perf.clustering_seconds` and charged to its virtual clock;
/// the cluster-table wire traffic it originates and absorbs goes to
/// `perf.bytes_encoded` / `perf.bytes_decoded`.
std::shared_ptr<const cluster::ClusterSet> hierarchical_cluster(
    sim::Rank rank, sim::Pmpi& pmpi, const cluster::RankSignature& sig,
    std::size_t k, cluster::SelectPolicy policy, std::uint64_t seed,
    trace::PerfCounters& perf, ClusterProtocolStats* stats,
    SharedTableCache& tables);

/// The members `rank` stands in for when it leads its cluster in `table`,
/// null when it does not (ScalaTraceTool::merge_leads' `members`).
[[nodiscard]] inline const trace::RankList* led_members(
    const cluster::ClusterSet& table, sim::Rank rank) {
  const cluster::ClusterEntry* entry = table.cluster_of(rank);
  return entry != nullptr && entry->lead == rank ? &entry->members : nullptr;
}

}  // namespace cham::core
