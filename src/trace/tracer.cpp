#include "trace/tracer.hpp"

#include <algorithm>

#include "analysis/race/annotate.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/timeline.hpp"
#include "sim/mpi.hpp"
#include "support/logging.hpp"
#include "trace/serialize.hpp"

namespace cham::trace {

namespace {
/// Tool-comm tag for trace payloads during radix merges.
constexpr int kMergeTag = 0x7A01;
/// Tool-comm tag for the merge root's handoff of a lead merge to the home
/// rank.
constexpr int kOnlineTag = 0x7A02;
}  // namespace

ScalaTraceTool::ScalaTraceTool(int nprocs, CallSiteRegistry* stacks)
    : nprocs_(nprocs), stacks_(stacks) {
  CHAM_CHECK_MSG(stacks_ != nullptr, "tracer needs a call-site registry");
  CHAM_CHECK_MSG(stacks_->nprocs() == nprocs,
                 "registry size must match world size");
  // Pre-install the per-rank singleton ranklists while still pre-fiber and
  // hand each rank its own: every event record starts as that list.
  const std::vector<RankList> singles = ranklist_intern_ensure_world(nprocs);
  state_.reserve(singles.size());
  for (const RankList& self : singles) state_.emplace_back(self);
}

void ScalaTraceTool::on_init(sim::Rank rank, sim::Pmpi& pmpi) {
  state(rank).last_event_end = pmpi.vtime();
}

void ScalaTraceTool::on_pre(sim::Rank rank, const sim::CallInfo& /*info*/,
                            sim::Pmpi& pmpi) {
  state(rank).pre_vtime = pmpi.vtime();
}

void ScalaTraceTool::on_post(sim::Rank rank, const sim::CallInfo& info,
                             sim::Pmpi& pmpi) {
  if (info.op == sim::Op::kInit) return;
  if (info.op == sim::Op::kFinalize) {
    handle_finalize(rank, pmpi);
    return;
  }

  RankTraceState& st = state(rank);
  RACE_WRITE("trace.rank", rank, 0);
  const double delta = st.pre_vtime - st.last_event_end;
  EventRecord record = make_record(rank, st, info, delta);

  ++st.events_observed;
  observe_event(rank, record, pmpi);

  if (st.storing) {
    ++st.events_recorded;
    const ToolSection timed(st.perf.intra_seconds);
    st.intra.append(std::move(record), &st.perf);
  }
  st.last_event_end = pmpi.vtime();

  if (info.is_marker) handle_marker_post(rank, pmpi);
}

EventRecord ScalaTraceTool::make_record(sim::Rank rank,
                                        const RankTraceState& st,
                                        const sim::CallInfo& info,
                                        double delta) const {
  EventRecord record;
  record.op = info.op;
  record.stack_sig = stacks_->stack(rank).signature();
  record.bytes = info.bytes;
  record.tag = info.tag;
  record.comm = info.comm;
  record.is_marker = info.is_marker;

  switch (info.op) {
    case sim::Op::kSend:
    case sim::Op::kIsend:
      record.dest = info.absolute_peer ? Endpoint::absolute(info.peer)
                                       : Endpoint::relative(rank, info.peer);
      break;
    case sim::Op::kRecv:
    case sim::Op::kIrecv:
    case sim::Op::kWait:
      if (info.peer == sim::kAnySource) {
        record.src = Endpoint::any();
      } else if (info.absolute_peer) {
        record.src = Endpoint::absolute(info.peer);
      } else {
        record.src = Endpoint::relative(rank, info.peer);
      }
      break;
    case sim::Op::kBcast:
    case sim::Op::kReduce:
    case sim::Op::kGather:
    case sim::Op::kScatter:
      record.dest = Endpoint::absolute(info.root);
      break;
    default:
      break;  // barrier, allreduce, allgather, alltoall, waitall: no endpoint
  }

  record.ranks = st.self;
  if (delta > 0) record.delta.add(delta);
  return record;
}

void ScalaTraceTool::observe_event(sim::Rank /*rank*/,
                                   const EventRecord& /*record*/,
                                   sim::Pmpi& /*pmpi*/) {}

void ScalaTraceTool::handle_marker_post(sim::Rank /*rank*/,
                                        sim::Pmpi& /*pmpi*/) {
  // Plain ScalaTrace treats the marker as an ordinary barrier event.
}

void ScalaTraceTool::handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) {
  std::vector<sim::Rank> everyone(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) everyone[static_cast<std::size_t>(r)] = r;
  std::vector<TraceNode> merged =
      radix_merge(rank, everyone, state(rank).intra.take(), pmpi);
  if (rank == 0) {
    RACE_WRITE("trace.global", 0, 0);
    global_ = std::move(merged);
  }
}

std::vector<TraceNode> ScalaTraceTool::radix_merge(
    sim::Rank self, const std::vector<sim::Rank>& participants,
    std::vector<TraceNode> mine, sim::Pmpi& pmpi) {
  const auto it =
      std::lower_bound(participants.begin(), participants.end(), self);
  CHAM_CHECK_MSG(it != participants.end() && *it == self,
                 "radix_merge: self not in participant list");
  const auto idx = static_cast<std::size_t>(it - participants.begin());
  const std::size_t n = participants.size();
  RACE_WRITE("trace.rank", self, 0);
  PerfCounters& perf = rank_perf(self);
  obs::Span merge_span(obs::Timeline::rank_tid(self), "radix_merge", "trace",
                       {obs::arg_int("participants",
                                     static_cast<std::int64_t>(n))});
  const obs::prof::PhaseScope merge_phase(obs::prof::Phase::kRadixMerge);

  for (std::size_t mask = 1; mask < n; mask <<= 1) {
    if (idx & mask) {
      // Ship the current partial result to the binomial parent and leave.
      std::vector<std::uint8_t> payload;
      {
        const ToolSection timed(perf.inter_seconds, pmpi);
        payload = encode_trace(mine);
      }
      perf.bytes_encoded += payload.size();
      pmpi.send_bytes(participants[idx - mask], kMergeTag,
                      std::move(payload));
      return {};
    }
    if (idx + mask < n) {
      // Receive the child's partial result (the blocking wait shows up in
      // virtual time, not CPU time) and fold it in (timed + charged).
      sim::RecvStatus status;
      std::vector<std::uint8_t> payload =
          pmpi.recv_bytes(participants[idx + mask], kMergeTag, &status);
      // A crashed child takes its subtree's partials with it; the merge
      // continues with what the survivors hold.
      if (status.peer_failed) continue;
      ++perf.merge_operations;
      perf.merge_bytes += payload.size();
      perf.bytes_decoded += payload.size();
      obs::Span step_span(
          obs::Timeline::rank_tid(self), "inter_merge", "trace",
          {obs::arg_int("child", participants[idx + mask]),
           obs::arg_int("bytes", static_cast<std::int64_t>(payload.size()))});
      const obs::prof::PhaseScope step_phase(obs::prof::Phase::kInterMerge);
      const ToolSection timed(perf.inter_seconds, pmpi);
      std::vector<TraceNode> theirs = decode_trace(payload);
      mine = inter_merge(std::move(mine), std::move(theirs), &perf);
    }
  }
  return mine;
}

std::vector<TraceNode> ScalaTraceTool::merge_leads(
    sim::Rank rank, const std::vector<sim::Rank>& leads,
    const RankList* members, sim::Rank home, sim::Pmpi& pmpi) {
  CHAM_CHECK_MSG(!leads.empty(), "merge without clusters");
  RankTraceState& st = state(rank);
  PerfCounters& perf = rank_perf(rank);
  std::vector<TraceNode> merged;
  if (members != nullptr) {
    std::vector<TraceNode> nodes = st.intra.take();
    {
      const ToolSection timed(perf.inter_seconds, pmpi);
      substitute_ranks(nodes, *members);
    }
    merged = radix_merge(rank, leads, std::move(nodes), pmpi);
  } else {
    st.intra.clear();
  }

  const sim::Rank merge_root = leads.front();
  if (merge_root == home) return merged;
  if (rank == merge_root) {
    std::vector<std::uint8_t> payload;
    {
      const ToolSection timed(perf.inter_seconds, pmpi);
      payload = encode_trace(merged);
    }
    perf.bytes_encoded += payload.size();
    pmpi.send_bytes(home, kOnlineTag, std::move(payload));
    return {};
  }
  if (rank == home) {
    sim::RecvStatus status;
    std::vector<std::uint8_t> payload =
        pmpi.recv_bytes(merge_root, kOnlineTag, &status);
    perf.bytes_decoded += payload.size();
    const ToolSection timed(perf.inter_seconds, pmpi);
    // A merge root that died mid-handoff takes the merge with it.
    if (!status.peer_failed) merged = decode_trace(payload);
  }
  return merged;
}

std::uint64_t ScalaTraceTool::events_recorded_total() const {
  std::uint64_t total = 0;
  for (const auto& st : state_) total += st.events_recorded;
  return total;
}

std::size_t ScalaTraceTool::rank_trace_bytes(sim::Rank r) const {
  return state_.at(static_cast<std::size_t>(r)).intra.footprint_bytes();
}

PerfCounters ScalaTraceTool::perf_counters() const {
  PerfCounters total;
  for (const RankTraceState& st : state_) total.add(st.perf);
  return total;
}

}  // namespace cham::trace
