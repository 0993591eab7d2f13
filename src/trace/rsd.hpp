// RSD/PRSD intra-node (loop-level) trace compression.
//
// ScalaTrace captures innermost repeating event windows as Regular Section
// Descriptors and nests them recursively into power-RSDs. We implement the
// online variant: after every appended event the tail of the node sequence
// is checked for (a) a repetition of the body of the loop immediately
// preceding it (increment that loop's iteration count) or (b) two equal
// adjacent windows (fold into a new 2-iteration loop). Applying the rules
// to fixpoint builds nested loops, e.g.
//
//   for 1000 { for 100 { send; recv } barrier }
//     ==>  loop 1000 { loop 100 { send; recv } barrier }
//
// with delta-time histograms accumulating across folded iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace cham::trace {

struct PerfCounters;

/// Persistent rolling-hash state for repeated fold_tail calls over the same
/// growing node sequence. `prefix[k]` is the kShapeSeqBase-polynomial
/// combination of nodes[0..k) shape hashes; fold_tail keeps it aligned with
/// the sequence incrementally (O(1) per append and per fold) instead of
/// rebuilding it on every call. Owned by IntraTrace; callers that mutate
/// the node sequence behind fold_tail's back must clear() it.
struct FoldState {
  std::vector<std::uint64_t> prefix;
  void clear() { prefix.clear(); }
};

/// Apply the two fold rules at the tail of `nodes` until neither fires.
/// Window lengths 1..max_window are tried, shortest first (a non-positive
/// max_window disables folding entirely). Returns the number of folds
/// performed. Window candidates are prechecked against rolling shape
/// hashes and only deep-compared on a hash match; `pc` (optional) receives
/// the precheck/verify counters and `state` (optional) carries the rolling
/// prefix hashes across calls. Without a state the prefix is built for this
/// call alone, linear in the sequence length.
int fold_tail(std::vector<TraceNode>& nodes, int max_window,
              PerfCounters* pc = nullptr, FoldState* state = nullptr);

class IntraTrace {
 public:
  explicit IntraTrace(int max_window = 32, PerfCounters* perf = nullptr)
      : max_window_(max_window), perf_(perf) {}

  /// Append one event and recompress the tail.
  void append(EventRecord ev);

  [[nodiscard]] const std::vector<TraceNode>& nodes() const { return nodes_; }

  /// Move the compressed trace out, leaving this trace empty.
  [[nodiscard]] std::vector<TraceNode> take();

  /// Adopt an already-compressed node sequence (ChamDurable: a resumed run
  /// restores the journaled partial trace, a promoted lead adopts a dead
  /// lead's last durable image). The rolling fold state is rebuilt lazily by
  /// the next append.
  void restore(std::vector<TraceNode> nodes) {
    nodes_ = std::move(nodes);
    fold_state_.clear();
  }

  void clear() {
    nodes_.clear();
    fold_state_.clear();
  }

  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Raw events appended since construction/clear-counter semantics: this
  /// counts *appends*, not compressed nodes.
  [[nodiscard]] std::uint64_t recorded_events() const { return recorded_; }

  /// Compressed leaf count (the paper's n).
  [[nodiscard]] std::size_t compressed_events() const;

  [[nodiscard]] std::size_t footprint_bytes() const {
    return trace::footprint_bytes(nodes_);
  }

 private:
  std::vector<TraceNode> nodes_;
  int max_window_;
  PerfCounters* perf_ = nullptr;
  FoldState fold_state_;
  std::uint64_t recorded_ = 0;
};

}  // namespace cham::trace
