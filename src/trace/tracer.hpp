// ScalaTrace: the baseline tracing tool.
//
// Per rank it maintains an RSD/PRSD-compressed intra-node trace fed from
// the PMPI post hooks, with relative endpoint encoding and delta-time
// histograms. At MPI_Finalize all P ranks consolidate their traces in a
// reduction over a binomial radix tree rooted at rank 0 — the costly
// O(n^2 log P) step Chameleon attacks.
//
// Timing discipline: only pure-CPU segments (compression, signature and
// merge work) run inside ToolSections, which add their host seconds to the
// rank's PerfCounters slot. Blocking communication is never timed — on the
// fiber scheduler, host time that passes while a fiber is blocked belongs
// to other ranks. Communication cost still shows up in the *virtual*
// clock, which the experiment harness reports separately.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/tool.hpp"
#include "trace/callsite.hpp"
#include "trace/merge.hpp"
#include "trace/perf.hpp"
#include "trace/rsd.hpp"

namespace cham::sim {
class Pmpi;
}

namespace cham::trace {

struct TracerOptions {
  int max_window = 32;
};

/// Per-rank tracing state (protected so Chameleon can drive it).
struct RankTraceState {
  RankTraceState(int max_window, PerfCounters* perf, RankList self)
      : intra(max_window, perf), self(self) {}

  IntraTrace intra;
  /// The rank's singleton ranklist, fetched before fibers start: every
  /// event record starts as this list, so the per-event path reads only
  /// state the rank owns and never takes the intern-table lock.
  RankList self;
  double last_event_end = 0.0;
  double pre_vtime = 0.0;
  /// When false the rank observes events (signatures still computed) but
  /// stores nothing — Chameleon's non-lead behaviour in the L state.
  bool storing = true;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_observed = 0;
};

class ScalaTraceTool : public sim::Tool {
 public:
  ScalaTraceTool(int nprocs, CallSiteRegistry* stacks,
                 TracerOptions opts = {});

  void on_init(sim::Rank rank, sim::Pmpi& pmpi) override;
  void on_pre(sim::Rank rank, const sim::CallInfo& info,
              sim::Pmpi& pmpi) override;
  void on_post(sim::Rank rank, const sim::CallInfo& info,
               sim::Pmpi& pmpi) override;

  /// The consolidated global trace (valid at/after finalize; lives at the
  /// tool since rank 0 produced it).
  [[nodiscard]] const std::vector<TraceNode>& global_trace() const {
    return global_;
  }

  // --- aggregated statistics (sum over ranks) ---
  [[nodiscard]] double intra_seconds() const {
    return perf_counters().intra_seconds;
  }
  [[nodiscard]] double inter_seconds() const {
    return perf_counters().inter_seconds;
  }
  /// Signature close and tree clustering (Chameleon, ACURDION); 0 for
  /// plain ScalaTrace, which does not cluster.
  [[nodiscard]] double clustering_seconds() const {
    return perf_counters().clustering_seconds;
  }
  /// Total tool overhead: intra tracing + clustering + inter compression.
  [[nodiscard]] double total_tool_seconds() const {
    return intra_seconds() + clustering_seconds() + inter_seconds();
  }
  /// Hardware-independent inter-compression work: pairwise merge operations
  /// performed and compressed bytes shipped/merged across the whole run
  /// (summed over ranks). ScalaTrace performs P-1 merges at finalize;
  /// Chameleon (K-1) per re-clustering — the paper's O(n^2 log P) vs
  /// O(r n^2 log K) contrast.
  [[nodiscard]] std::uint64_t merge_operations() const {
    return perf_counters().merge_operations;
  }
  [[nodiscard]] std::uint64_t merge_bytes() const {
    return perf_counters().merge_bytes;
  }
  [[nodiscard]] std::uint64_t events_recorded_total() const;
  [[nodiscard]] std::size_t rank_trace_bytes(sim::Rank r) const;
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] const RankTraceState& rank_state(sim::Rank r) const {
    return state_.at(static_cast<std::size_t>(r));
  }

  /// Tool-wide counters and per-phase seconds, aggregated on demand from
  /// the per-rank slots (each rank's fiber only ever touches its own slot,
  /// so the hot paths stay free of cross-rank writes — a precondition for
  /// the sharded engine and what the ChamRace analyzer checks).
  [[nodiscard]] const PerfCounters& perf_counters() const;
  /// One rank's own slot (the per-rank metrics export).
  [[nodiscard]] const PerfCounters& rank_perf_counters(sim::Rank r) const {
    return rank_perf_.at(static_cast<std::size_t>(r));
  }

 protected:
  RankTraceState& state(sim::Rank r) {
    return state_.at(static_cast<std::size_t>(r));
  }

  /// The calling rank's own counter slot. Hot-path writes go here, never to
  /// the aggregated perf_.
  PerfCounters& rank_perf(sim::Rank r) {
    return rank_perf_.at(static_cast<std::size_t>(r));
  }

  /// Build the event record for a completed call (relative endpoints,
  /// delta-time sample, the rank's singleton ranklist).
  [[nodiscard]] EventRecord make_record(sim::Rank rank,
                                        const RankTraceState& st,
                                        const sim::CallInfo& info,
                                        double delta) const;

  /// Hook points for derived tools (Chameleon, ACURDION).
  virtual void observe_event(sim::Rank rank, const EventRecord& record,
                             sim::Pmpi& pmpi);
  virtual void handle_marker_post(sim::Rank rank, sim::Pmpi& pmpi);
  virtual void handle_finalize(sim::Rank rank, sim::Pmpi& pmpi);

  /// Binomial-tree reduction of compressed traces over `participants`
  /// (sorted ascending; `self` must be a member). Returns the fully merged
  /// trace at participants[0], an empty vector elsewhere. Non-blocking CPU
  /// work is charged to each participant's inter_seconds.
  std::vector<TraceNode> radix_merge(sim::Rank self,
                                     const std::vector<sim::Rank>& participants,
                                     std::vector<TraceNode> mine,
                                     sim::Pmpi& pmpi);

  /// The lead-only merge of a clustered tool (ACURDION at finalize,
  /// Chameleon per interval). Every rank drops its partial trace; each lead
  /// first rewrites its own into a trace for its whole cluster (`members`,
  /// null on non-leads), the leads radix-merge, and the merge root
  /// (leads[0]) hands the result to `home`. Returns the merged trace at
  /// `home`, an empty vector elsewhere — and at `home` too when the merge
  /// root died before the handoff. Every live rank calls it with the same
  /// `leads` and `home`.
  std::vector<TraceNode> merge_leads(sim::Rank rank,
                                     const std::vector<sim::Rank>& leads,
                                     const RankList* members, sim::Rank home,
                                     sim::Pmpi& pmpi);

  int nprocs_;
  CallSiteRegistry* stacks_;
  TracerOptions opts_;
  /// One counter block per rank, written only by that rank's fiber.
  /// Declared before state_ (each RankTraceState's IntraTrace holds a
  /// pointer into it) and sized once in the constructor, never resized.
  std::vector<PerfCounters> rank_perf_;
  /// Aggregation scratch: perf_counters() sums rank_perf_ into it at report
  /// time. Mutable so the const accessor can fill it; never written on hot
  /// paths.
  mutable PerfCounters perf_;
  std::vector<RankTraceState> state_;
  std::vector<TraceNode> global_;
};

}  // namespace cham::trace
