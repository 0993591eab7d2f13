#include "core/acurdion.hpp"

#include "analysis/race/annotate.hpp"
#include "core/protocol.hpp"

namespace cham::core {

AcurdionTool::AcurdionTool(int nprocs, trace::CallSiteRegistry* stacks,
                           ChameleonConfig config)
    : ScalaTraceTool(nprocs, stacks),
      config_(config),
      whole_run_(static_cast<std::size_t>(nprocs)),
      clusters_(std::make_shared<const cluster::ClusterSet>()) {}

void AcurdionTool::observe_event(sim::Rank rank,
                                 const trace::EventRecord& record,
                                 sim::Pmpi& /*pmpi*/) {
  // Streamed signature accumulation; accounted with intra tracing (see the
  // matching note in ChameleonTool::observe_event).
  whole_run_[static_cast<std::size_t>(rank)].observe(record);
}

void AcurdionTool::handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) {
  const cluster::RankSignature sig =
      whole_run_[static_cast<std::size_t>(rank)].current();

  ClusterProtocolStats stats;
  const std::shared_ptr<const cluster::ClusterSet> table =
      hierarchical_cluster(rank, pmpi, sig, config_.k, config_.policy,
                           config_.seed, rank_perf(rank), &stats, tables_);
  if (rank == 0) {
    RACE_WRITE("acurdion.table", 0, 0);
    clusters_ = table;
    effective_k_ = stats.effective_k;
  }

  // Only the K lead traces reach the global trace, which rank 0 keeps.
  std::vector<trace::TraceNode> merged = merge_leads(
      rank, table->leads(), led_members(*table, rank), /*home=*/0, pmpi);
  if (rank == 0) {
    RACE_WRITE("trace.global", 0, 0);
    global_ = std::move(merged);
  }
}

}  // namespace cham::core
