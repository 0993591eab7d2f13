// Performance counters for the compression fast path.
//
// The shape-hash fast path (docs/PERF.md) turns the fold/merge hot loops
// into hash-compare-then-verify. These counters expose how often the O(1)
// prechecks fire, how often they are wrong (hash collisions / endpoint
// mismatches), and how much wire traffic the reductions move — the raw
// material for `chamtrace run --perf` and the cham.fold/merge metrics.
//
// Tools keep one PerfCounters block *per rank*, written only by that
// rank's fiber, and aggregate on demand at report time. A single shared
// instance would be an unordered write-write conflict the moment two
// ranks run concurrently — the ChamRace analyzer (docs/RACE.md) verifies
// the per-rank discipline ahead of the sharded engine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cham::obs {
class MetricsRegistry;
}

namespace cham::trace {

struct PerfCounters {
  // --- intra-node folding (fold_tail) ---
  std::uint64_t fold_windows_tested = 0;  ///< windows past the cheap length checks
  std::uint64_t fold_hash_rejects = 0;    ///< rejected by the O(1) window hash
  std::uint64_t fold_hash_hits = 0;       ///< window hash matched, deep verify ran
  std::uint64_t fold_false_positives = 0; ///< hash matched but shapes differed
  std::uint64_t fold_deep_compares = 0;   ///< full window comparisons performed
  std::uint64_t folds_performed = 0;      ///< successful fold rules applied

  // --- inter-node merging (inter_merge) ---
  std::uint64_t merge_prechecks = 0;      ///< merge-hash prechecks evaluated
  std::uint64_t merge_hash_rejects = 0;   ///< pairs rejected by hash in O(1)
  std::uint64_t merge_deep_compares = 0;  ///< pairs that reached the deep check
  std::uint64_t merge_deep_rejects = 0;   ///< deep check failed after hash match
  std::uint64_t merge_memo_hits = 0;      ///< LCS cells answered from the memo
  std::uint64_t merge_zip_hits = 0;       ///< inter_merges zipped diagonally,
                                          ///< skipping the LCS table (dedup)

  // --- wire traffic (encode/decode during reductions and handoffs) ---
  std::uint64_t bytes_encoded = 0;
  std::uint64_t bytes_decoded = 0;

  // --- per-phase CPU seconds (filled by the owning tool at report time) ---
  double intra_seconds = 0.0;
  double inter_seconds = 0.0;
  double clustering_seconds = 0.0;

  void add(const PerfCounters& other);
  void reset() { *this = PerfCounters{}; }

  /// Multi-line human-readable summary (the `chamtrace run --perf` block).
  [[nodiscard]] std::string to_string() const;
};

/// Bridge one tool's counters into the ChamScope metrics registry under the
/// documented cham.fold.* / cham.merge.* / cham.wire.* / cham.phase.seconds
/// names, labelled with the tool. Called at report time, never on hot paths.
void export_to_metrics(const PerfCounters& counters,
                       obs::MetricsRegistry& registry, std::string_view tool);

}  // namespace cham::trace
