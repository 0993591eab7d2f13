#include "core/chameleon.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/race/annotate.hpp"
#include "core/protocol.hpp"
#include "durable/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/timeline.hpp"
#include "sim/mpi.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "trace/callsite.hpp"
#include "trace/serialize.hpp"

namespace cham::core {

const char* marker_state_name(MarkerState state) {
  switch (state) {
    case MarkerState::kAllTracing: return "AT";
    case MarkerState::kClustering: return "C";
    case MarkerState::kLead: return "L";
    case MarkerState::kFinal: return "F";
  }
  return "?";
}

ChameleonTool::ChameleonTool(int nprocs, trace::CallSiteRegistry* stacks,
                             ChameleonConfig config)
    : ScalaTraceTool(nprocs, stacks),
      config_(config),
      empty_table_(std::make_shared<const cluster::ClusterSet>()),
      cham_(static_cast<std::size_t>(nprocs)) {
  CHAM_CHECK_MSG(config_.k >= 1, "K must be at least 1");
  CHAM_CHECK_MSG(config_.call_frequency >= 1, "Call_Frequency must be >= 1");
  for (RankChamState& cs : cham_) cs.clusters = empty_table_;

  const durable::RecoveredState* resume = config_.resume;
  if (resume == nullptr || resume->epoch == 0) return;

  // ChamDurable resume: restore the global protocol state up front (the
  // constructor runs before any fiber, so these cross-rank writes are
  // race-free), then arm every rank for the fast-forward replay. Per-rank
  // flags and partial traces are adopted at the recovered epoch, not here —
  // the replayed markers re-derive counters (auto-marker detection, marker
  // cadence) exactly as the original run did.
  resume_target_ = resume->epoch;
  trace::import_sites(resume->sites);
  online_ = trace::decode_trace(resume->online_wire);
  resumed_counts_ = resume->state_counts;
  effective_k_ = static_cast<std::size_t>(resume->effective_k);
  num_callpaths_ = static_cast<std::size_t>(resume->num_callpaths);
  gaps_emitted_.insert(resume->gap_ranks.begin(), resume->gap_ranks.end());
  // One decoded table, shared by every rank.
  const std::shared_ptr<const cluster::ClusterSet> table =
      resume->clusters_wire.empty()
          ? empty_table_
          : std::make_shared<const cluster::ClusterSet>(
                cluster::ClusterSet::decode(resume->clusters_wire));
  for (const durable::RankRecord& rec : resume->ranks)
    resume_records_.emplace(rec.rank, rec);
  for (int r = 0; r < nprocs; ++r) {
    cham_[static_cast<std::size_t>(r)].clusters = table;
    cham_[static_cast<std::size_t>(r)].fast_forward = true;
    state(r).storing = false;
  }
}

const ChameleonTool::RankChamState& ChameleonTool::view() const {
  // Ranks only ever die, so the rank that got furthest saw every epoch any
  // other rank saw. A rank that died inside an epoch ties on markers with
  // the survivors but closed one epoch fewer.
  const auto progress = [](const RankChamState& cs) {
    std::uint64_t closed = 0;
    for (const StateLedger& entry : cs.ledger) closed += entry.calls;
    return std::pair(cs.processed, closed);
  };
  const RankChamState* best = &cham_.front();
  for (const RankChamState& cs : cham_)
    if (progress(cs) > progress(*best)) best = &cs;
  return *best;
}

double ChameleonTool::state_seconds(MarkerState state) const {
  double total = 0.0;
  for (const RankChamState& cs : cham_)
    total += cs.ledger[static_cast<std::size_t>(state)].seconds;
  return total;
}

sim::Rank ChameleonTool::home_rank(sim::Pmpi& pmpi) {
  sim::Engine& eng = pmpi.engine();
  if (!eng.fault_injection_enabled() || eng.failed_count() == 0) return 0;
  return eng.live_ranks().front();
}

void ChameleonTool::handle_failures(sim::Rank rank, sim::Pmpi& pmpi) {
  sim::Engine& eng = pmpi.engine();
  if (!eng.fault_injection_enabled() || eng.failed_count() == 0) return;
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  bool any_dead_lead = false;
  for (const auto& [callpath, entries] : cs.clusters->groups())
    for (const cluster::ClusterEntry& entry : entries)
      any_dead_lead = any_dead_lead || eng.is_failed(entry.lead);
  if (!any_dead_lead) return;

  // Every survivor runs this after the same synchronization point (marker
  // barrier or the finalize settle barrier) and before the next crash
  // opportunity (the first tool-comm send/recv), so all observe the
  // identical failed set and repair their tables identically. The table
  // they hold is shared and immutable: each repairs a private copy.
  auto repaired = std::make_shared<cluster::ClusterSet>(*cs.clusters);
  const sim::Rank home = cs.epoch_home;
  std::size_t lead_total = 0;
  std::size_t lead_dead = 0;
  for (auto& [callpath, entries] : repaired->groups_mutable()) {
    for (cluster::ClusterEntry& entry : entries) {
      ++lead_total;
      if (!eng.is_failed(entry.lead)) continue;
      const sim::Rank dead = entry.lead;
      // The paper picks the cluster head as the group's representative;
      // under failure that rule degrades to the lowest-rank survivor of
      // the same group.
      sim::Rank promoted = sim::kAnySource;
      entry.members.for_each_member([&](sim::Rank member) {
        if (eng.is_failed(member)) return true;  // keep scanning
        promoted = member;
        return false;
      });
      // ChamDurable: the dead lead's last journaled partial trace survives
      // on disk, so the promoted survivor adopts it and carries on instead
      // of the home rank mourning the interval with a GAP node. Every
      // survivor consults the same shared Checkpointer, so the decision is
      // identical everywhere. Only the events between the lead's last
      // committed epoch and its death are lost (the residual tail window —
      // see docs/DURABILITY.md).
      std::optional<durable::RankRecord> saved;
      if (promoted != sim::kAnySource && config_.checkpointer != nullptr)
        saved = config_.checkpointer->latest_rank_record(dead);
      if (saved.has_value()) {
        if (rank == promoted) {
          state(rank).intra.restore(trace::decode_trace(saved->intra_wire));
          if (obs::Timeline* tl = obs::timeline())
            tl->instant(obs::Timeline::rank_tid(rank), "durable.lead_restore",
                        "durable",
                        {obs::arg_int("dead", dead),
                         obs::arg_int("epoch", static_cast<std::int64_t>(
                                                   saved->epoch))});
          if (auto* m = obs::metrics())
            m->add_counter("cham.durable.lead_restores", {}, 1);
        }
        // Mourned via restore: no gap node, and the loss does not count
        // toward the degrade fraction.
        if (rank == home) gaps_emitted_.insert(dead);
      } else {
        ++lead_dead;
        if (rank == home && gaps_emitted_.insert(dead).second) {
          // The dead lead's partial trace is gone; the interval it covered
          // for its cluster becomes an explicit gap in the online trace so
          // downstream consumers see the loss instead of silent absence.
          trace::EventRecord gap;
          gap.op = sim::Op::kGap;
          gap.tag = dead;
          gap.comm = sim::kCommWorld;
          gap.ranks = entry.members;
          trace::TraceNode node = trace::TraceNode::leaf(std::move(gap));
          if (config_.checkpointer != nullptr) {
            RACE_WRITE("cham.pending", 0, 0);
            pending_gaps_.push_back(node);
          }
          RACE_WRITE("cham.online", 0, 0);
          online_.push_back(std::move(node));
        }
      }
      if (promoted == sim::kAnySource) continue;  // whole cluster died
      entry.lead = promoted;
      if (rank == promoted) state(rank).storing = true;
    }
  }
  // A cluster whose every member died has nobody to promote: it leaves the
  // table (its gap node stays), so no dead rank roots a later lead merge.
  auto& groups = repaired->groups_mutable();
  for (auto group = groups.begin(); group != groups.end();) {
    std::erase_if(group->second, [&](const cluster::ClusterEntry& entry) {
      return eng.is_failed(entry.lead);
    });
    group = group->second.empty() ? groups.erase(group) : std::next(group);
  }
  cs.clusters = std::move(repaired);
  if (lead_dead == 0) return;
  const double fraction =
      static_cast<double>(lead_dead) / static_cast<double>(lead_total);
  if (fraction > kDegradeFraction) {
    // Too much representative coverage is gone: abandon lead-only tracing
    // and have every survivor trace for itself until the next clustering.
    cs.clusters = empty_table_;
    cs.protocol.lead_phase = false;
    cs.protocol.reclustering = true;
    state(rank).storing = true;
  }
}

void ChameleonTool::on_post(sim::Rank rank, const sim::CallInfo& info,
                            sim::Pmpi& pmpi) {
  ScalaTraceTool::on_post(rank, info, pmpi);
  if (!config_.auto_marker || info.is_marker) return;
  if (info.op == sim::Op::kInit || info.op == sim::Op::kFinalize) return;
  if (!sim::op_is_collective(info.op) || info.comm != sim::kCommWorld) return;

  // §VII automation: world collectives occur in the same order on every
  // rank of an SPMD code, so "the first collective call site seen twice"
  // is a globally consistent choice that needs no extra communication.
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  std::uint64_t& auto_site = cs.protocol.auto_site;
  const std::uint64_t site = stacks_->stack(rank).signature();
  if (auto_site == 0 && ++cs.site_counts[site] >= 2) {
    auto_site = site;
    cs.site_counts.clear();
  }
  if (auto_site == site) handle_marker_post(rank, pmpi);
}

void ChameleonTool::observe_event(sim::Rank rank,
                                  const trace::EventRecord& record,
                                  sim::Pmpi& /*pmpi*/) {
  // Signature computation runs on every rank regardless of the storing
  // flag — it is the cheap "observing" half of tracing the collective vote
  // depends on. The paper creates signatures at the marker from the
  // PRSD-compressed sequence (O(n), n = distinct events); this incremental
  // accumulator is the streaming equivalent, and its per-event cost is the
  // same hash-and-insert a real implementation performs while unwinding
  // the stack — it is accounted as part of intra tracing, not clustering.
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  if (cs.fast_forward) return;  // resume replay: signatures restart at adoption
  cs.interval.observe(record);
}

cluster::RankSignature ChameleonTool::close_interval(sim::Rank rank) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  const trace::ToolSection timed(rank_perf(rank).clustering_seconds);
  cluster::RankSignature sig = cs.interval.current();
  cs.interval.reset();
  return sig;
}

MarkerAction ChameleonTool::algorithm1(sim::Rank rank, sim::Pmpi& pmpi,
                                       const cluster::RankSignature& sig) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  durable::RankProtocol& p = cs.protocol;
  if (p.first_marker) {
    // First marker: no history to compare against; stay in AT without any
    // communication (every rank takes this branch simultaneously).
    p.first_marker = false;
    p.old_callpath = sig.callpath;
    return MarkerAction::kNone;
  }

  const std::uint64_t mismatch = p.old_callpath != sig.callpath ? 1 : 0;
  // The collective vote: MPI_Reduce + MPI_Bcast, O(log P). Communication is
  // deliberately untimed (blocking); only local work counts as CPU. The
  // root is rank 0 until it dies, then the lowest survivor.
  const sim::Rank home = cs.epoch_home;
  const std::uint64_t sum = pmpi.reduce_u64(mismatch, sim::ReduceOp::kSum, home);
  const std::uint64_t glob = pmpi.bcast_u64(sum, home);

  // The local vote bookkeeping below is a handful of instructions — far
  // below timer resolution, so it is not timed; only the clustering path
  // (run_clustering) does measurable local work.
  p.old_callpath = sig.callpath;
  if (glob == 0) {
    if (p.reclustering) {
      p.reclustering = false;
      return MarkerAction::kCluster;
    }
    return MarkerAction::kNone;  // quiet lead phase
  }
  if (p.lead_phase) {
    return MarkerAction::kFlush;
  }
  p.reclustering = true;
  return MarkerAction::kNone;  // stay in / fall back to AT
}

void ChameleonTool::run_clustering(sim::Rank rank, sim::Pmpi& pmpi,
                                   const cluster::RankSignature& sig) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  obs::Span span(obs::Timeline::rank_tid(rank), "clustering", "protocol");
  const obs::prof::PhaseScope phase(obs::prof::Phase::kClustering);
  ClusterProtocolStats stats;
  cs.clusters =
      hierarchical_cluster(rank, pmpi, sig, config_.k, config_.policy,
                           config_.seed, rank_perf(rank), &stats, tables_);
  if (rank == cs.epoch_home) {
    // Single writer: only the epoch home publishes the clustering quota,
    // and home handoffs are barrier-ordered.
    RACE_WRITE("cham.quota", 0, 0);
    num_callpaths_ = stats.num_callpaths;
    effective_k_ = stats.effective_k;
  }

  // Non-leads stop storing traces from here on; their cluster's lead stands
  // in for them (this is where the Table IV zeros come from).
  const cluster::ClusterEntry* entry = cs.clusters->cluster_of(rank);
  if (entry == nullptr) {
    // Only possible when a crash dropped this rank's table mid-reduction:
    // unrepresented survivors trace for themselves (bounded degradation).
    CHAM_CHECK_MSG(pmpi.engine().fault_injection_enabled(),
                   "clustering lost a rank");
    state(rank).storing = true;
    return;
  }
  state(rank).storing = entry->lead == rank;
}

void ChameleonTool::lead_merge_into_online(sim::Rank rank, sim::Pmpi& pmpi) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  obs::Span span(obs::Timeline::rank_tid(rank), "lead_merge", "protocol");
  const obs::prof::PhaseScope phase(obs::prof::Phase::kLeadMerge);
  // All processes start over (line 47): partial intra-node traces vanish;
  // only the last event's timing context survives (last_event_end). The
  // interval's global trace lands at the home rank (lines 36–44; rank 0
  // unless it died). A merge root that died mid-handoff takes the interval
  // with it; the loss surfaces as a gap node at the next failure handling.
  const sim::Rank home = cs.epoch_home;
  const cluster::ClusterSet& table = *cs.clusters;
  std::vector<trace::TraceNode> merged = merge_leads(
      rank, table.leads(), led_members(table, rank), home, pmpi);
  if (rank == home && !merged.empty()) {
    obs::Span fold_span(obs::Timeline::rank_tid(rank), "append_fold", "trace");
    const obs::prof::PhaseScope phase(obs::prof::Phase::kFold);
    const trace::ToolSection timed(rank_perf(rank).inter_seconds, pmpi);
    if (config_.checkpointer != nullptr) {
      // Stage the pre-append interval for the epoch delta: recovery reruns
      // exactly this append_online on the journaled image.
      RACE_WRITE("cham.pending", 0, 0);
      pending_interval_wire_ = trace::encode_trace(merged);
    }
    RACE_WRITE("cham.online", 0, 0);
    trace::append_online(online_, std::move(merged), &rank_perf(rank));
  }
}

double ChameleonTool::protocol_seconds(sim::Rank rank) const {
  const trace::PerfCounters& perf = rank_perf_counters(rank);
  return perf.clustering_seconds + perf.inter_seconds;
}

void ChameleonTool::finish_epoch(sim::Rank rank, sim::Pmpi& pmpi,
                                 MarkerState state_tag, MarkerAction action,
                                 std::uint64_t intra_bytes,
                                 double ledger_before, bool final_epoch) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  RACE_WRITE("cham.rank", rank, 0);
  StateLedger& entry = cs.ledger[static_cast<std::size_t>(state_tag)];
  ++entry.calls;
  entry.seconds += protocol_seconds(rank) - ledger_before;
  // Table IV bookkeeping: the partial trace held during this interval plus
  // (at the home rank) the online trace after this epoch's append.
  entry.bytes_total += intra_bytes;
  if (rank == cs.epoch_home && !online_.empty()) {
    RACE_READ("cham.online", 0, 0);
    entry.bytes_total += trace::footprint_bytes(online_);
  }
  cs.held_bytes = intra_bytes;
  cs.peak_held_bytes = std::max(cs.peak_held_bytes, intra_bytes);

  record_epoch(rank, state_tag, action);
  journal_epoch(rank, pmpi, state_tag, action, final_epoch);
}

void ChameleonTool::record_epoch(sim::Rank rank, MarkerState state_tag,
                                 MarkerAction action) {
  const RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  if (obs::Timeline* tl = obs::timeline())
    tl->instant(obs::Timeline::rank_tid(rank),
                std::string("state.") + marker_state_name(state_tag),
                "protocol",
                {obs::arg_int("marker",
                              static_cast<std::int64_t>(cs.processed)),
                 obs::arg_int("clusters", static_cast<std::int64_t>(
                                              cs.clusters->total_clusters()))});

  if (!config_.record_epochs || rank != cs.epoch_home) return;
  obs::EpochRecord record;
  record.marker = cs.processed;
  record.state = marker_state_name(state_tag);
  record.action = action == MarkerAction::kNone      ? "none"
                  : action == MarkerAction::kCluster ? "cluster"
                                                     : "flush";
  record.callpaths = num_callpaths_;
  record.clusters = cs.clusters->total_clusters();
  record.leads = cs.clusters->leads();
  record.lead_of.assign(static_cast<std::size_t>(nprocs_), -1);
  // One pass over cluster members instead of a cluster_of() probe per world
  // rank (O(P * clusters) at 64k). First entry wins, matching cluster_of's
  // group iteration order for ranks claimed by more than one cluster.
  for (const auto& [callpath, entries] : cs.clusters->groups()) {
    (void)callpath;
    for (const cluster::ClusterEntry& entry : entries) {
      entry.members.for_each_member([&](sim::Rank r) {
        if (r >= 0 && r < nprocs_ &&
            record.lead_of[static_cast<std::size_t>(r)] == -1) {
          record.lead_of[static_cast<std::size_t>(r)] = entry.lead;
        }
      });
    }
  }
  // Wire-image digest of what this epoch committed: the cluster table as
  // broadcast plus the online trace as it would ship. The trace side uses
  // the structural projection — ToolSection bills host CPU time into the
  // virtual clock, so the full wire image's delta histograms are not
  // reproducible even under an identical schedule.
  const std::vector<std::uint8_t> table = cs.clusters->encode();
  RACE_READ("cham.online", 0, 0);
  const std::vector<std::uint8_t> wire = trace::encode_trace_structure(online_);
  record.digest =
      support::hash_combine(support::fnv1a64(table.data(), table.size()),
                            support::fnv1a64(wire.data(), wire.size()));
  RACE_WRITE("cham.epochs", 0, 0);
  epochs_.push_back(std::move(record));
}

void ChameleonTool::adopt_resume_state(sim::Rank rank) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  cs.fast_forward = false;
  trace::RankTraceState& st = state(rank);
  const auto it = resume_records_.find(rank);
  if (it == resume_records_.end()) {
    // The rank was not in the recovered epoch's live set (it is about to
    // die again, or the whole run pre-dates clustering): trace for itself.
    st.storing = true;
    return;
  }
  const durable::RankRecord& rec = it->second;
  cs.protocol = rec.protocol;
  st.storing = rec.storing;
  st.intra.restore(trace::decode_trace(rec.intra_wire));
  cs.interval.reset();
  if (obs::Timeline* tl = obs::timeline())
    tl->instant(obs::Timeline::rank_tid(rank), "durable.resume", "durable",
                {obs::arg_int("epoch", static_cast<std::int64_t>(rec.epoch))});
}

void ChameleonTool::journal_epoch(sim::Rank rank, sim::Pmpi& pmpi,
                                  MarkerState state_tag, MarkerAction action,
                                  bool final_epoch) {
  durable::Checkpointer* cp = config_.checkpointer;
  if (cp == nullptr) return;
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  trace::RankTraceState& st = state(rank);

  durable::RankRecord rec;
  rec.epoch = cs.processed;
  rec.rank = rank;
  rec.final_epoch = final_epoch;
  rec.storing = st.storing;
  rec.protocol = cs.protocol;
  rec.intra_wire = trace::encode_trace(st.intra.nodes());
  cp->append_rank_record(rec);

  // Commit barrier: every live rank's record reaches the journal before the
  // home rank's delta, so a delta present on recovery implies a complete
  // epoch (torn tails can only cut uncommitted epochs).
  pmpi.barrier();
  if (rank != cs.epoch_home) return;

  durable::EpochDelta delta;
  delta.epoch = cs.processed;
  delta.final_epoch = final_epoch;
  delta.state = static_cast<std::uint8_t>(state_tag);
  delta.action = static_cast<std::uint8_t>(action);
  RACE_READ("cham.pending", 0, 0);
  delta.gaps_wire = trace::encode_trace(pending_gaps_);
  delta.interval_wire = pending_interval_wire_;
  delta.clusters_wire = cs.clusters->encode();
  for (std::size_t s = 0; s < delta.state_counts.size(); ++s)
    delta.state_counts[s] = resumed_counts_[s] + cs.ledger[s].calls;
  delta.effective_k = effective_k_;
  delta.num_callpaths = num_callpaths_;
  sim::Engine& eng = pmpi.engine();
  if (eng.fault_injection_enabled() && eng.failed_count() > 0) {
    delta.live = eng.live_ranks();
  } else {
    delta.live.resize(static_cast<std::size_t>(nprocs_));
    for (int r = 0; r < nprocs_; ++r) delta.live[static_cast<std::size_t>(r)] = r;
  }
  RACE_READ("cham.online", 0, 0);
  cp->commit_epoch(delta, trace::encode_trace(online_));
  RACE_WRITE("cham.pending", 0, 0);
  pending_gaps_.clear();
  pending_interval_wire_.clear();
}

void ChameleonTool::handle_marker_post(sim::Rank rank, sim::Pmpi& pmpi) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  if (++cs.protocol.markers_seen %
          static_cast<std::uint64_t>(config_.call_frequency) != 0)
    return;
  RACE_WRITE("cham.rank", rank, 0);
  ++cs.processed;
  if (cs.fast_forward) {
    // Resume replay: count the marker cadence exactly as the original run
    // did, but skip all tracing and protocol work (the journal already
    // holds the outcome). At the recovered epoch the rank adopts its
    // journaled record and goes live.
    if (cs.processed >= resume_target_) adopt_resume_state(rank);
    return;
  }
  cs.epoch_home = home_rank(pmpi);

  // Dead leads are detected at the next processed marker: the marker
  // barrier is the synchronization point after which every survivor sees
  // the same failed set.
  handle_failures(rank, pmpi);

  trace::RankTraceState& st = state(rank);
  const std::uint64_t intra_bytes_before = st.intra.footprint_bytes();
  const double ledger_before = protocol_seconds(rank);
  const cluster::RankSignature sig = close_interval(rank);
  const MarkerAction action = algorithm1(rank, pmpi, sig);

  MarkerState state_tag = MarkerState::kAllTracing;
  switch (action) {
    case MarkerAction::kNone:
      state_tag = cs.protocol.lead_phase ? MarkerState::kLead
                                         : MarkerState::kAllTracing;
      break;
    case MarkerAction::kCluster:
      run_clustering(rank, pmpi, sig);
      lead_merge_into_online(rank, pmpi);
      cs.protocol.lead_phase = true;
      state_tag = MarkerState::kClustering;
      break;
    case MarkerAction::kFlush:
      lead_merge_into_online(rank, pmpi);
      cs.protocol.lead_phase = false;
      cs.protocol.reclustering = true;
      st.storing = true;  // everyone traces again until the next clustering
      state_tag = MarkerState::kLead;
      break;
  }
  finish_epoch(rank, pmpi, state_tag, action, intra_bytes_before,
               ledger_before, /*final_epoch=*/false);
}

void ChameleonTool::handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) {
  RankChamState& cs = cham_[static_cast<std::size_t>(rank)];
  // Resume replay that reached finalize still fast-forwarding: the
  // recovered epoch was the run's last marker, so adopt the journaled
  // state now and process finalize live.
  if (cs.fast_forward) adopt_resume_state(rank);
  const bool ft = pmpi.engine().fault_injection_enabled();
  if (ft) {
    // Settle barrier: ranks crashing at finalize entry are dead by the
    // time this completes, so every survivor repairs against the same
    // failed set; the second barrier holds everyone until all repairs are
    // done before any merge traffic (a survivor crashing mid-merge must
    // not be half-repaired). Both are skipped without an injector to keep
    // fault-free runs bit-identical.
    pmpi.barrier();
    cs.epoch_home = home_rank(pmpi);
    handle_failures(rank, pmpi);
    pmpi.barrier();
  }
  const std::uint64_t intra_bytes_before = state(rank).intra.footprint_bytes();
  const double ledger_before = protocol_seconds(rank);
  const cluster::RankSignature sig = close_interval(rank);
  MarkerAction final_action = MarkerAction::kFlush;
  if (cs.protocol.lead_phase) {
    // A clustering is active: the trailing events live in the lead traces.
    lead_merge_into_online(rank, pmpi);
  } else {
    // Forced re-clustering — MPI_Finalize guarantees a new Call-Path, so
    // Algorithm 1 is skipped and clustering runs unconditionally.
    final_action = MarkerAction::kCluster;
    run_clustering(rank, pmpi, sig);
    lead_merge_into_online(rank, pmpi);
  }
  finish_epoch(rank, pmpi, MarkerState::kFinal, final_action,
               intra_bytes_before, ledger_before, /*final_epoch=*/true);
}

obs::ReportInput build_report_input(const ChameleonTool& tool,
                                    std::string workload) {
  obs::ReportInput input;
  input.workload = std::move(workload);
  input.nranks = tool.nprocs();
  input.epochs = tool.epochs();
  for (int s = 0; s < 4; ++s) {
    const auto state = static_cast<MarkerState>(s);
    obs::StateMemoryRow row;
    row.state = marker_state_name(state);
    std::uint64_t mn = 0;
    std::uint64_t mx = 0;
    for (int r = 0; r < tool.nprocs(); ++r) {
      const auto& sb = tool.rank_ledger(r, state);
      if (sb.calls == 0 && sb.bytes_total == 0) continue;
      if (row.ranks == 0 || sb.bytes_total < mn) mn = sb.bytes_total;
      if (row.ranks == 0 || sb.bytes_total > mx) mx = sb.bytes_total;
      ++row.ranks;
      row.calls += sb.calls;
      row.bytes_total += sb.bytes_total;
    }
    row.bytes_min = mn;
    row.bytes_max = mx;
    input.memory.push_back(std::move(row));
  }
  return input;
}

}  // namespace cham::core
