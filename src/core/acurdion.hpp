// ACURDION baseline: signature clustering at MPI_Finalize only.
//
// The predecessor line of work ([1],[2],[3] in the paper) clusters once,
// late: every rank traces the whole run (so all P ranks pay full trace
// storage — the Table IV comparison), computes its whole-run signature in
// MPI_Finalize, participates in one hierarchical clustering, and only the
// K lead traces are merged into the global trace. Chameleon's Table III
// compares its repeated marker processing against this single pass.
#pragma once

#include <memory>

#include "cluster/clusterset.hpp"
#include "cluster/signature.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "trace/tracer.hpp"

namespace cham::core {

class AcurdionTool : public trace::ScalaTraceTool {
 public:
  AcurdionTool(int nprocs, trace::CallSiteRegistry* stacks,
               ChameleonConfig config = {});

  [[nodiscard]] const cluster::ClusterSet& clusters() const {
    return *clusters_;
  }
  [[nodiscard]] std::size_t effective_k() const { return effective_k_; }
  /// The one-slot cache the broadcast table is decoded through.
  [[nodiscard]] const SharedTableCache& table_cache() const { return tables_; }

 protected:
  void observe_event(sim::Rank rank, const trace::EventRecord& record,
                     sim::Pmpi& pmpi) override;
  void handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) override;

 private:
  ChameleonConfig config_;
  std::vector<cluster::IntervalSignature> whole_run_;
  SharedTableCache tables_;
  /// Rank 0's view: empty until the finalize clustering.
  std::shared_ptr<const cluster::ClusterSet> clusters_;
  std::size_t effective_k_ = 0;  // written by rank 0 only
};

}  // namespace cham::core
