#include "trace/merge.hpp"

#include <algorithm>
#include <optional>

#include "trace/perf.hpp"
#include "trace/rsd.hpp"

namespace cham::trace {

namespace {

/// The single world rank this endpoint targets for every member of `ranks`,
/// if such a rank exists. Absolute endpoints always have one; a relative
/// endpoint only when the ranklist is a singleton (then self + offset is
/// fixed). This is what lets master-worker patterns generalize: worker i's
/// "send -i" and worker j's "send -j" both target rank 0.
std::optional<sim::Rank> common_target(const Endpoint& ep,
                                       const RankList& ranks) {
  if (ep.kind == Endpoint::Kind::kAbsolute)
    return static_cast<sim::Rank>(ep.value);
  if (ep.kind == Endpoint::Kind::kRelative && ranks.count() == 1)
    return ranks.first() + ep.value;
  return std::nullopt;
}

/// Can endpoints a (over ranks ra) and b (over ranks rb) describe one merged
/// event? On success *out is the merged encoding.
bool endpoints_mergeable(const Endpoint& a, const RankList& ra,
                         const Endpoint& b, const RankList& rb,
                         Endpoint* out) {
  if (a == b) {
    *out = a;
    return true;
  }
  const auto ta = common_target(a, ra);
  const auto tb = common_target(b, rb);
  if (ta.has_value() && tb.has_value() && *ta == *tb) {
    *out = Endpoint::absolute(*ta);
    return true;
  }
  return false;
}

bool events_mergeable(const EventRecord& a, const EventRecord& b,
                      Endpoint* src_out, Endpoint* dest_out) {
  if (a.op != b.op || a.stack_sig != b.stack_sig || a.bytes != b.bytes ||
      a.tag != b.tag || a.comm != b.comm || a.is_marker != b.is_marker) {
    return false;
  }
  return endpoints_mergeable(a.src, a.ranks, b.src, b.ranks, src_out) &&
         endpoints_mergeable(a.dest, a.ranks, b.dest, b.ranks, dest_out);
}

bool nodes_mergeable_deep(const TraceNode& a, const TraceNode& b) {
  if (a.iters != b.iters) return false;
  if (a.is_loop()) {
    if (b.body.size() != a.body.size()) return false;
    for (std::size_t i = 0; i < a.body.size(); ++i)
      if (!nodes_mergeable_deep(a.body[i], b.body[i])) return false;
    return true;
  }
  Endpoint src, dest;
  return events_mergeable(a.event, b.event, &src, &dest);
}

/// Hash-precheck-then-verify: mergeable nodes always share their
/// (endpoint-independent) merge_hash, so a mismatch rejects in O(1); on a
/// match the deep check still settles endpoint generalization.
bool nodes_mergeable(const TraceNode& a, const TraceNode& b,
                     PerfCounters* pc) {
  if (a.hashed() && b.hashed()) {
    if (pc != nullptr) ++pc->merge_prechecks;
    if (a.merge_hash != b.merge_hash) {
      if (pc != nullptr) ++pc->merge_hash_rejects;
      return false;
    }
  }
  if (pc != nullptr) ++pc->merge_deep_compares;
  const bool ok = nodes_mergeable_deep(a, b);
  if (!ok && pc != nullptr) ++pc->merge_deep_rejects;
  return ok;
}

/// Merge structurally-mergeable b into a: ranklist union, histogram merge,
/// endpoint generalization. Rehashed bottom-up (endpoint generalization
/// changes the shape) and loop size caches dropped (ranklists grew).
void merge_into(TraceNode& a, const TraceNode& b) {
  if (a.is_loop()) {
    for (std::size_t i = 0; i < a.body.size(); ++i)
      merge_into(a.body[i], b.body[i]);
    a.footprint_cache = 0;
    a.rehash_shallow();
    return;
  }
  Endpoint src, dest;
  const bool ok = events_mergeable(a.event, b.event, &src, &dest);
  (void)ok;  // guaranteed by nodes_mergeable before merge_into
  a.event.src = src;
  a.event.dest = dest;
  a.event.ranks.merge(b.event.ranks);
  a.event.delta.merge(b.event.delta);
  a.rehash_shallow();
}

/// Per-thread reusable DP/memo storage for the LCS merge: a weak-scaled
/// fold performs O(log P) merges per epoch with similarly sized tables, so
/// reusing capacity removes the dominant allocation in the merge tree. Safe
/// with fibers: lcs_merge never yields to the scheduler mid-call, so the
/// scratch is never observed mid-use.
struct MergeScratch {
  std::vector<std::uint32_t> dp;
  std::vector<std::uint8_t> memo;
};

MergeScratch& merge_scratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

void ensure_hashed(std::vector<TraceNode>& nodes) {
  for (auto& node : nodes)
    if (!node.hashed()) node.rehash_deep();
}

}  // namespace

std::vector<TraceNode> inter_merge(std::vector<TraceNode> a,
                                   std::vector<TraceNode> b,
                                   PerfCounters* pc) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  ensure_hashed(a);
  ensure_hashed(b);

  // Dedup zip: weak-scaled SPMD ranks produce structurally identical
  // sequences, so sibling subtrees usually align 1:1. When the sides have
  // equal length and every diagonal pair is mergeable (hash precheck makes
  // a mismatch O(1)), the LCS backtrack would take the mergeable branch at
  // every step anyway — zip diagonally and skip the O(n^2) table.
  const std::size_t n = a.size();
  if (n == b.size()) {
    bool diagonal = true;
    for (std::size_t i = 0; i < n && diagonal; ++i)
      diagonal = nodes_mergeable(a[i], b[i], pc);
    if (diagonal) {
      if (pc != nullptr) ++pc->merge_zip_hits;
      std::vector<TraceNode> merged;
      merged.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        TraceNode node = std::move(a[i]);
        merge_into(node, b[i]);
        merged.push_back(std::move(node));
      }
      return merged;
    }
  }
  return lcs_merge(std::move(a), std::move(b), pc);
}

std::vector<TraceNode> lcs_merge(std::vector<TraceNode> a,
                                 std::vector<TraceNode> b,
                                 PerfCounters* pc) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  ensure_hashed(a);
  ensure_hashed(b);

  const std::size_t na = a.size();
  const std::size_t nb = b.size();

  // Mergeability memo shared between the DP fill and the backtrack pass:
  // the fill evaluates every pair once, the backtrack replays its path from
  // the memo instead of re-running the structural comparison.
  MergeScratch& scratch = merge_scratch();
  std::vector<std::uint8_t>& memo = scratch.memo;
  memo.assign(na * nb, 0);
  auto mergeable = [&](std::size_t i, std::size_t j) {
    std::uint8_t& cell = memo[i * nb + j];
    if (cell != 0) {
      if (pc != nullptr) ++pc->merge_memo_hits;
      return cell == 1;
    }
    const bool ok = nodes_mergeable(a[i], b[j], pc);
    cell = ok ? 1 : 2;
    return ok;
  };

  // LCS table over mergeability (shape + endpoint generalization).
  std::vector<std::uint32_t>& dp = scratch.dp;
  dp.assign((na + 1) * (nb + 1), 0);
  auto at = [&dp, nb](std::size_t i, std::size_t j) -> std::uint32_t& {
    return dp[i * (nb + 1) + j];
  };
  for (std::size_t i = na; i-- > 0;) {
    for (std::size_t j = nb; j-- > 0;) {
      if (mergeable(i, j)) {
        at(i, j) = at(i + 1, j + 1) + 1;
      } else {
        at(i, j) = std::max(at(i + 1, j), at(i, j + 1));
      }
    }
  }

  std::vector<TraceNode> merged;
  merged.reserve(na + nb);
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (mergeable(i, j)) {
      TraceNode node = std::move(a[i]);
      merge_into(node, b[j]);
      merged.push_back(std::move(node));
      ++i;
      ++j;
    } else if (at(i + 1, j) >= at(i, j + 1)) {
      merged.push_back(std::move(a[i]));
      ++i;
    } else {
      merged.push_back(std::move(b[j]));
      ++j;
    }
  }
  for (; i < na; ++i) merged.push_back(std::move(a[i]));
  for (; j < nb; ++j) merged.push_back(std::move(b[j]));
  return merged;
}

void append_online(std::vector<TraceNode>& online,
                   std::vector<TraceNode> interval, PerfCounters* pc) {
  // One rolling prefix for the whole interval: built once over the online
  // trace by the first fold, then extended per appended node.
  FoldState state;
  for (auto& node : interval) {
    online.push_back(std::move(node));
    fold_tail(online, kMaxWindow, pc, &state);
  }
}

}  // namespace cham::trace
