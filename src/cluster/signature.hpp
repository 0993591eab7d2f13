// Per-interval rank signatures: Call-Path, SRC and DEST.
//
// Between two markers every rank folds the events it observes into an
// IntervalSignature. Following §III of the paper:
//
//   * Call-Path = XOR over the *distinct* stack signatures of the interval
//     (n = number of disjoint stack signatures, matching PRSD-compressed
//     events), each multiplied by ((sequence mod 10) + 1) so permuted call
//     sequences and recursion cannot cancel out.
//   * SRC / DEST = the average of the endpoint parameter signatures of the
//     interval's events, computed with an overflow-safe estimation function
//     (support::RunningMean) instead of sum-then-divide.
//
// Ranks that have tracing storage disabled (non-leads in state L) still
// feed this accumulator: signature computation is the cheap "observing"
// half of tracing that must keep running for the collective vote to work.
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"
#include "trace/event.hpp"

namespace cham::cluster {

/// The triple the clustering algorithms operate on.
struct RankSignature {
  std::uint64_t callpath = 0;
  std::uint64_t src = 0;
  std::uint64_t dest = 0;

  bool operator==(const RankSignature& other) const = default;
};

/// Distance between two rank signatures for K-farthest / K-medoid: the
/// saturating L1 distance over the SRC/DEST features (Call-Path equality is
/// enforced separately — clustering never mixes call paths).
std::uint64_t signature_distance(const RankSignature& a,
                                 const RankSignature& b);

class IntervalSignature {
 public:
  /// Fold one observed event into the interval.
  void observe(const trace::EventRecord& event);

  /// Number of distinct stack signatures observed (the paper's n).
  [[nodiscard]] std::size_t distinct_events() const { return order_.size(); }

  [[nodiscard]] bool empty() const { return order_.empty(); }

  /// Current (Call-Path, SRC, DEST) triple.
  [[nodiscard]] RankSignature current() const;

  /// Start a new interval.
  void reset();

 private:
  /// Distinct stack signatures, first-seen order. Membership is a scan
  /// from the back: an interval holds a handful of call paths (at most 6
  /// on the shipped workloads), and clear() keeps the capacity, so after
  /// the first interval observe() allocates nothing.
  std::vector<std::uint64_t> order_;
  support::RunningMean src_mean_;
  support::RunningMean dest_mean_;
};

}  // namespace cham::cluster
