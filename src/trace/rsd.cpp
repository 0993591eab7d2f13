#include "trace/rsd.hpp"

#include "support/logging.hpp"
#include "trace/perf.hpp"

namespace cham::trace {

namespace {

/// Powers of kShapeSeqBase, grown on demand and cached across fold_tail
/// calls (the window limit rarely changes within a process).
const std::uint64_t* seq_powers(std::size_t limit) {
  thread_local std::vector<std::uint64_t> powers{1};
  while (powers.size() <= limit) powers.push_back(powers.back() * kShapeSeqBase);
  return powers.data();
}

/// Applies the two tail fold rules with the shape-hash fast path: a rolling
/// polynomial hash over the node sequence (same kShapeSeqBase scheme as
/// TraceNode::body_seq) makes every window test an O(1) compare; only
/// windows whose hashes match are deep-verified, so a hash collision can
/// cost time but never a wrong fold. The prefix array lives in a FoldState
/// and is maintained incrementally (one entry per append, one
/// truncate-and-push per fold).
class TailFolder {
 public:
  TailFolder(std::vector<TraceNode>& nodes, std::size_t limit,
             PerfCounters* pc, FoldState& state)
      : nodes_(nodes), limit_(limit), pc_(pc), state_(state),
        powers_(seq_powers(limit)) {}

  int run() {
    sync_state();
    int folds = 0;
    bool folded = true;
    while (folded) {
      folded = false;
      for (std::size_t len = 1; len <= limit_ && len <= nodes_.size(); ++len) {
        if (try_increment_loop(len) || try_fold_pair(len)) {
          folded = true;
          ++folds;
          if (pc_ != nullptr) ++pc_->folds_performed;
          break;  // restart with the shortest window after any change
        }
      }
    }
    return folds;
  }

 private:
  /// Bring the prefix in line with the node sequence: extend by one entry
  /// after a plain append (the overwhelmingly common case), leave alone
  /// when already aligned, rebuild from scratch otherwise (first call or
  /// the sequence was mutated externally).
  void sync_state() {
    std::vector<std::uint64_t>& prefix = state_.prefix;
    if (prefix.size() == nodes_.size() + 1) return;
    if (!prefix.empty() && prefix.size() == nodes_.size()) {
      extend_prefix(nodes_.size() - 1);
      return;
    }
    prefix.assign(1, 0);
    for (std::size_t k = 0; k < nodes_.size(); ++k) extend_prefix(k);
  }

  /// Append the prefix entry covering nodes_[k] (entries 0..k are in place).
  void extend_prefix(std::size_t k) {
    TraceNode& node = nodes_[k];
    if (!node.hashed()) node.rehash_deep();
    state_.prefix.push_back(state_.prefix[k] * kShapeSeqBase +
                            node.shape_hash);
  }

  /// Polynomial hash of the window nodes_[at, at+len).
  [[nodiscard]] std::uint64_t window_hash(std::size_t at,
                                          std::size_t len) const {
    return state_.prefix[at + len] - state_.prefix[at] * powers_[len];
  }

  /// After a fold rewrote the tail so that nodes_[at] is now the (hashed)
  /// last node: discard the prefix entries the fold invalidated and append
  /// the entry for the new tail node.
  void refold_prefix(std::size_t at) {
    state_.prefix.resize(at + 1);
    extend_prefix(at);
  }

  [[nodiscard]] bool deep_equal(std::size_t lhs_at, std::size_t rhs_at,
                                std::size_t len,
                                const std::vector<TraceNode>& lhs) const {
    for (std::size_t i = 0; i < len; ++i)
      if (!lhs[lhs_at + i].same_shape(nodes_[rhs_at + i])) return false;
    return true;
  }

  /// Window precheck-then-verify shared by both rules: lhs[lhs_at, +len)
  /// vs nodes_[rhs_at, +len), where `lhs_hash` is the lhs window's rolling
  /// hash (a loop's body_seq or another tail window).
  bool windows_match(std::uint64_t lhs_hash, const std::vector<TraceNode>& lhs,
                     std::size_t lhs_at, std::size_t rhs_at, std::size_t len) {
    if (pc_ != nullptr) ++pc_->fold_windows_tested;
    if (lhs_hash != window_hash(rhs_at, len)) {
      if (pc_ != nullptr) ++pc_->fold_hash_rejects;
      return false;
    }
    if (pc_ != nullptr) {
      ++pc_->fold_hash_hits;
      ++pc_->fold_deep_compares;
    }
    const bool ok = deep_equal(lhs_at, rhs_at, len, lhs);
    if (!ok && pc_ != nullptr) ++pc_->fold_false_positives;
    return ok;
  }

  /// Rule (a): the loop node right before the last `len` nodes has a body
  /// matching them — fold the window into one more iteration of that loop.
  bool try_increment_loop(std::size_t len) {
    if (nodes_.size() < len + 1) return false;
    const std::size_t loop_at = nodes_.size() - len - 1;
    TraceNode& loop = nodes_[loop_at];
    if (!loop.is_loop() || loop.body.size() != len) return false;
    if (!windows_match(loop.body_seq, loop.body, 0, loop_at + 1, len))
      return false;
    for (std::size_t i = 0; i < len; ++i)
      loop.body[i].absorb_stats(nodes_[loop_at + 1 + i]);
    ++loop.iters;
    loop.rehash_shallow();
    nodes_.resize(loop_at + 1);
    refold_prefix(loop_at);
    return true;
  }

  /// Rule (b): the last 2*len nodes form two structurally equal halves —
  /// fold them into a fresh loop of two iterations.
  bool try_fold_pair(std::size_t len) {
    if (nodes_.size() < 2 * len) return false;
    const std::size_t first = nodes_.size() - 2 * len;
    const std::size_t second = nodes_.size() - len;
    if (!windows_match(window_hash(first, len), nodes_, first, second, len))
      return false;
    std::vector<TraceNode> body;
    body.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      TraceNode merged = std::move(nodes_[first + i]);
      merged.absorb_stats(nodes_[second + i]);
      body.push_back(std::move(merged));
    }
    nodes_.resize(first);
    nodes_.push_back(TraceNode::loop(2, std::move(body)));
    refold_prefix(first);
    return true;
  }

  std::vector<TraceNode>& nodes_;
  std::size_t limit_;
  PerfCounters* pc_;
  FoldState& state_;
  const std::uint64_t* powers_;
};

}  // namespace

int fold_tail(std::vector<TraceNode>& nodes, int max_window, PerfCounters* pc,
              FoldState* state) {
  // A non-positive window means "no folding", not "unbounded": the old
  // static_cast turned negative windows into a near-infinite limit.
  if (max_window <= 0) return 0;
  FoldState local;
  TailFolder folder(nodes, static_cast<std::size_t>(max_window), pc,
                    state != nullptr ? *state : local);
  return folder.run();
}

void IntraTrace::append(EventRecord ev, PerfCounters* perf) {
  nodes_.push_back(TraceNode::leaf(std::move(ev)));
  fold_tail(nodes_, kMaxWindow, perf, &fold_state_);
}

std::vector<TraceNode> IntraTrace::take() {
  std::vector<TraceNode> out = std::move(nodes_);
  nodes_.clear();
  fold_state_.clear();
  return out;
}

std::size_t IntraTrace::compressed_events() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.leaf_count();
  return n;
}

}  // namespace cham::trace
