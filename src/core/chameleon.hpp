// Chameleon: online signature-based clustering on top of ScalaTrace.
//
// At every processed marker (an MPI_Barrier on the dedicated marker
// communicator, gated by Call_Frequency) each rank:
//
//   1. closes its interval signature (Call-Path, SRC, DEST — §III),
//   2. votes collectively on Call-Path repetition (Algorithm 1:
//      MPI_Reduce + MPI_Bcast, O(log P)),
//   3. acts on the outcome (Algorithm 3):
//        C      hierarchical signature clustering over a binomial tree,
//               broadcast of the top-K cluster table, lead-only trace merge
//               into the online trace at rank 0, partial-trace reset;
//               non-leads stop storing traces,
//        L      (flush, on a phase change while leading) lead-only merge
//               with the existing clusters, then back to all-tracing,
//        quiet  nothing — leads keep accumulating (RSD folding keeps their
//               partial traces near-constant in size), non-leads store 0
//               bytes.
//
// MPI_Finalize adds the trailing events: a flush when a clustering is
// active, otherwise one forced clustering pass (the paper: re-clustering
// "must be triggered" since MPI_Finalize itself is a new event).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/clusterset.hpp"
#include "cluster/signature.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "durable/snapshot.hpp"
#include "obs/report.hpp"
#include "support/memtrack.hpp"
#include "trace/tracer.hpp"

namespace cham::core {

class ChameleonTool : public trace::ScalaTraceTool {
 public:
  ChameleonTool(int nprocs, trace::CallSiteRegistry* stacks,
                ChameleonConfig config = {});

  /// The incrementally built global trace (held at rank 0).
  [[nodiscard]] const std::vector<trace::TraceNode>& online_trace() const {
    return online_;
  }

  /// Cluster table from the most recent clustering (as seen by rank 0).
  [[nodiscard]] const cluster::ClusterSet& clusters() const;
  /// The table rank `rank` holds: the broadcast table it shares with every
  /// rank that received the same bytes, or its private copy after a
  /// failover repair.
  [[nodiscard]] const cluster::ClusterSet& rank_clusters(sim::Rank rank) const {
    return *cham_.at(static_cast<std::size_t>(rank)).clusters;
  }
  /// The one-slot cache the broadcast tables are decoded through.
  [[nodiscard]] const SharedTableCache& table_cache() const { return tables_; }

  // --- experiment counters (identical on every rank; see Table II) --------
  [[nodiscard]] std::uint64_t marker_calls_processed() const;
  [[nodiscard]] std::uint64_t state_count(MarkerState state) const {
    return state_counts_[static_cast<std::size_t>(state)];
  }
  [[nodiscard]] std::uint64_t reclusterings() const {
    return state_count(MarkerState::kClustering);
  }
  [[nodiscard]] std::size_t effective_k() const { return effective_k_; }
  [[nodiscard]] std::size_t num_callpath_clusters() const {
    return num_callpaths_;
  }

  // --- per-state tool CPU time, aggregated over ranks (Figure 8) ----------
  // Each processed marker charges its state the growth of the rank's
  // clustering + inter seconds, so the four states sum to
  // clustering_seconds() + inter_seconds(). Accounting is kept strictly per
  // rank (each fiber writes only its own slot — a ChamRace-checked
  // invariant); the aggregates sum on demand.
  [[nodiscard]] double state_seconds(MarkerState state) const;
  /// Same accounting, kept per rank (ChamScope metrics export).
  [[nodiscard]] double rank_state_seconds(sim::Rank rank,
                                          MarkerState state) const {
    return rank_state_seconds_.at(static_cast<std::size_t>(rank))
        .at(static_cast<std::size_t>(state));
  }
  /// Online inter-compression work (lead merges + online append).
  [[nodiscard]] double online_inter_seconds() const { return inter_seconds(); }

  // --- per-rank, per-state memory accounting (Table IV) -------------------
  struct StateBytes {
    std::uint64_t calls = 0;
    std::uint64_t bytes_total = 0;
    [[nodiscard]] std::uint64_t bytes_per_call() const {
      return calls == 0 ? 0 : bytes_total / calls;
    }
  };
  [[nodiscard]] const StateBytes& rank_state_bytes(sim::Rank rank,
                                                   MarkerState state) const {
    return bytes_.at(static_cast<std::size_t>(rank))
        .at(static_cast<std::size_t>(state));
  }

  /// Partial-trace footprint per rank, re-charged at every marker boundary:
  /// current() tracks the live interval's bytes, peak() the worst epoch.
  [[nodiscard]] const support::MemTracker& rank_mem(sim::Rank rank) const {
    return mem_.at(static_cast<std::size_t>(rank));
  }

  /// Epoch-by-epoch protocol snapshots (only filled when
  /// ChameleonConfig::record_epochs is set; recorded by the home rank).
  [[nodiscard]] const std::vector<obs::EpochRecord>& epochs() const {
    return epochs_;
  }

  /// Per-epoch wire-image digests (only filled when
  /// ChameleonConfig::record_digests is set; hashed by the home rank from
  /// the broadcast cluster table + the online trace). The determinism
  /// auditor diffs these sequences across scheduler seeds.
  [[nodiscard]] const std::vector<std::uint64_t>& epoch_digests() const {
    return epoch_digests_;
  }

  [[nodiscard]] const ChameleonConfig& config() const { return config_; }

 public:
  /// Overridden to implement §VII auto-marker detection (see
  /// ChameleonConfig::auto_marker).
  void on_post(sim::Rank rank, const sim::CallInfo& info,
               sim::Pmpi& pmpi) override;

  /// Auto-detected marker call site (0 until one recurs); rank-0 view.
  [[nodiscard]] std::uint64_t auto_marker_site() const {
    return cham_.front().auto_site;
  }

 protected:
  void observe_event(sim::Rank rank, const trace::EventRecord& record,
                     sim::Pmpi& pmpi) override;
  void handle_marker_post(sim::Rank rank, sim::Pmpi& pmpi) override;
  void handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) override;

 private:
  struct RankChamState {
    cluster::IntervalSignature interval;
    std::uint64_t old_callpath = 0;
    bool first_marker = true;
    bool reclustering = true;
    bool lead_phase = false;  // between C and its flush
    std::uint64_t markers_seen = 0;
    /// Home rank for the current marker epoch, captured right after the
    /// epoch's synchronization point while no crash can intervene — later
    /// protocol steps reuse it so every survivor agrees even if the home
    /// itself dies mid-protocol (consistency over freshness).
    sim::Rank epoch_home = 0;
    /// Processed markers this rank has participated in. Every live rank
    /// passes every processed marker's barrier, so all live copies agree —
    /// the counter stays per rank only so that no fiber ever writes a
    /// shared slot (ChamRace).
    std::uint64_t processed = 0;
    /// The broadcast table, shared with every rank that received the same
    /// bytes (immutable); a private copy only once a failover repaired it.
    std::shared_ptr<const cluster::ClusterSet> clusters;
    /// ChamDurable resume: while set, this rank replays the workload
    /// without tracing or protocol work; cleared when the replay reaches
    /// the recovered epoch and the journaled record is adopted.
    bool fast_forward = false;
    // --- §VII auto-marker detection ---
    std::uint64_t auto_site = 0;  // chosen recurring collective site
    std::unordered_map<std::uint64_t, int> site_counts;
  };

  /// Fault tolerance: detect cluster leads that died since the last
  /// processed marker, promote the lowest-rank surviving member of each
  /// affected cluster, record an explicit gap node for the interval the
  /// dead lead's partial trace covered, and fall back to all-ranks tracing
  /// when more than config_.degrade_fraction of the leads are gone. No-op
  /// without an installed fault injector.
  void handle_failures(sim::Rank rank, sim::Pmpi& pmpi);
  /// Rank that owns the online trace and roots the vote: rank 0 until it
  /// dies, then the lowest surviving rank.
  [[nodiscard]] static sim::Rank home_rank(sim::Pmpi& pmpi);

  /// Close the rank's interval signature (timed as clustering, uncharged).
  cluster::RankSignature close_interval(sim::Rank rank);
  MarkerAction algorithm1(sim::Rank rank, sim::Pmpi& pmpi,
                          const cluster::RankSignature& sig);
  /// Hierarchical clustering + broadcast (Algorithm 3 lines 7–24).
  void run_clustering(sim::Rank rank, sim::Pmpi& pmpi,
                      const cluster::RankSignature& sig);
  /// Lead-only inter-compression + online-trace append (lines 25–48).
  void lead_merge_into_online(sim::Rank rank, sim::Pmpi& pmpi);
  /// The rank's protocol ledger: its clustering + inter seconds so far.
  [[nodiscard]] double protocol_seconds(sim::Rank rank) const;
  /// Epoch accounting shared by marker and finalize processing: the state
  /// count (rank 0), the ledger's growth since `ledger_before` charged to
  /// the state, the Table IV bytes, the epoch record and the journal entry.
  void finish_epoch(sim::Rank rank, sim::Pmpi& pmpi, MarkerState state,
                    MarkerAction action, std::uint64_t intra_bytes,
                    double ledger_before, bool final_epoch);
  /// ChamScope bookkeeping of finish_epoch: the epoch record (home rank,
  /// when enabled), the state instant on the timeline, and the per-rank
  /// partial-trace memory re-charge.
  void record_epoch(sim::Rank rank, MarkerState state, MarkerAction action,
                    std::uint64_t intra_bytes);

  /// ChamDurable: journal this rank's post-epoch record, cross the commit
  /// barrier (records precede the delta in the journal), then have the
  /// epoch home append the EpochDelta and fsync. No-op without a
  /// checkpointer.
  void journal_epoch(sim::Rank rank, sim::Pmpi& pmpi, MarkerState state,
                     MarkerAction action, bool final_epoch);
  /// End of the fast-forward replay: adopt this rank's recovered record
  /// (protocol flags, partial intra trace, storing flag).
  void adopt_resume_state(sim::Rank rank);

  ChameleonConfig config_;
  /// The table every rank holds before its first clustering and after a
  /// degrade: one shared empty set, not one per rank.
  std::shared_ptr<const cluster::ClusterSet> empty_table_;
  SharedTableCache tables_;
  std::vector<RankChamState> cham_;
  std::vector<trace::TraceNode> online_;

  /// Dead leads already covered by a gap node in the online trace (gaps
  /// are emitted once per dead lead, by the home rank).
  std::set<sim::Rank> gaps_emitted_;

  std::array<std::uint64_t, 4> state_counts_{};  // written by rank 0 only
  std::size_t effective_k_ = 0;   // written by the epoch home only
  std::size_t num_callpaths_ = 0;  // written by the epoch home only
  std::vector<std::array<StateBytes, 4>> bytes_;
  std::vector<std::array<double, 4>> rank_state_seconds_;
  std::vector<support::MemTracker> mem_;
  std::vector<obs::EpochRecord> epochs_;  // appended by the epoch home only
  std::vector<std::uint64_t> epoch_digests_;  // appended by the epoch home

  // --- ChamDurable ---
  /// Processed-marker count to fast-forward through on resume (0 = fresh).
  std::uint64_t resume_target_ = 0;
  /// Recovered per-rank records, adopted when fast-forward ends.
  std::unordered_map<int, durable::RankRecord> resume_records_;
  /// Gap nodes emitted this epoch / the interval handed to append_online,
  /// staged for the epoch delta. Written by the home rank's fiber only
  /// (home handoffs are barrier-ordered, same single-writer argument as
  /// online_).
  std::vector<trace::TraceNode> pending_gaps_;
  std::vector<std::uint8_t> pending_interval_wire_;
};

/// Assemble the `chamtrace report` input from a finished run: the recorded
/// epochs plus the per-state trace-memory table aggregated over ranks
/// (min/max/total of each rank's bytes charged to the state). Everything in
/// the result is deterministic for a fixed workload + config.
[[nodiscard]] obs::ReportInput build_report_input(const ChameleonTool& tool,
                                                  std::string workload);

}  // namespace cham::core
