// Inter-node trace merging.
//
// During the reduction over the radix tree, each internal node combines its
// compressed trace with the traces received from children. Two PRSD
// sequences are aligned with an LCS over structural shape (operation, stack
// signature, parameters, relative endpoints, loop structure): aligned nodes
// union their ranklists and merge delta-time histograms; unaligned runs are
// spliced in order. This is the O(n^2) step whose repetition over log P
// (ScalaTrace) versus log K (Chameleon) levels is the paper's headline
// complexity difference.
#pragma once

#include <vector>

#include "trace/event.hpp"

namespace cham::trace {

struct PerfCounters;

/// Merge two compressed sequences into one. Commutative up to the order of
/// spliced unmatched runs (a's runs precede b's at equal positions).
/// Equal-length sequences whose diagonal pairs are all mergeable are zipped
/// in O(n) (the weak-scaled SPMD case); everything else falls back to
/// lcs_merge. `pc` (optional) receives the precheck/memo/zip counters.
std::vector<TraceNode> inter_merge(std::vector<TraceNode> a,
                                   std::vector<TraceNode> b,
                                   PerfCounters* pc = nullptr);

/// The general O(n^2) merge inter_merge falls back to: an LCS over
/// mergeability. Candidate pairs are prechecked against cached merge-class
/// hashes and the verdicts are memoized across the DP fill and the
/// backtrack. Wherever the zip fires it yields the same sequence.
std::vector<TraceNode> lcs_merge(std::vector<TraceNode> a,
                                 std::vector<TraceNode> b,
                                 PerfCounters* pc = nullptr);

/// Append one interval's merged trace to the growing online trace (held at
/// rank 0) and recompress the tail so repeated phases fold into loops —
/// this is what makes the online trace converge to the MPI_Finalize output
/// of plain ScalaTrace.
void append_online(std::vector<TraceNode>& online,
                   std::vector<TraceNode> interval, int max_window = 32,
                   PerfCounters* pc = nullptr);

}  // namespace cham::trace
