// Performance counters and the tool clock.
//
// The shape-hash fast path (docs/PERF.md) turns the fold/merge hot loops
// into hash-compare-then-verify. These counters expose how often the O(1)
// prechecks fire, how often they are wrong (hash collisions / endpoint
// mismatches), how much wire traffic the reductions move, and how much
// host time the tool spends per phase — the raw material for
// `chamtrace run --perf`, the cham.fold/merge metrics and the paper's
// overhead figures.
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

#include "support/timer.hpp"

namespace cham::obs {
class MetricsRegistry;
}

namespace cham::sim {
class Pmpi;
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

  // --- radix merges (the receiving side of each pairwise fold) ---
  std::uint64_t merge_operations = 0;     ///< child traces folded in
  std::uint64_t merge_bytes = 0;          ///< compressed bytes received

  // --- wire traffic (encode/decode during reductions and handoffs) ---
  std::uint64_t bytes_encoded = 0;
  std::uint64_t bytes_decoded = 0;

  // --- per-phase tool seconds (ToolSection accumulates them) ---
  double intra_seconds = 0.0;       ///< intra-node appends and folds
  double inter_seconds = 0.0;       ///< merges, handoffs, online append
  double clustering_seconds = 0.0;  ///< signature close and tree clustering

  void add(const PerfCounters& other);
  void reset() { *this = PerfCounters{}; }

  /// Multi-line human-readable summary (the `chamtrace run --perf` block).
  [[nodiscard]] std::string to_string() const;
};

/// The tool clock: times one non-blocking stretch of tool work on a rank's
/// fiber and adds the elapsed host seconds to `seconds`, one of the
/// per-phase fields of that rank's PerfCounters slot. The charged form also
/// advances the rank's virtual clock by the same amount: tool compute is
/// real compute on the node, so it must delay that rank (and, transitively,
/// everyone who waits on it) — this is what makes the aggregated
/// virtual-time overhead reproduce the paper's aggregated wall-clock
/// overhead, including the P-wide wait for the finalize-time merge chain.
/// A section must not block: time a blocked fiber spends waiting belongs
/// to the network model, not to the tool.
class ToolSection {
 public:
  explicit ToolSection(double& seconds)
      : seconds_(seconds), start_(support::thread_cpu_seconds()) {}
  ToolSection(double& seconds, sim::Pmpi& pmpi)
      : seconds_(seconds),
        pmpi_(&pmpi),
        start_(support::thread_cpu_seconds()) {}
  ~ToolSection() {
    const double elapsed = support::thread_cpu_seconds() - start_;
    seconds_ += elapsed;
    if (pmpi_ != nullptr) charge(*pmpi_, elapsed);
  }
  ToolSection(const ToolSection&) = delete;
  ToolSection& operator=(const ToolSection&) = delete;

 private:
  static void charge(sim::Pmpi& pmpi, double seconds);

  double& seconds_;
  sim::Pmpi* pmpi_ = nullptr;
  double start_;
};

/// Bridge one tool's counters into the ChamScope metrics registry under the
/// documented cham.fold.* / cham.merge.* / cham.wire.* / cham.phase.seconds
/// names, labelled with the tool. Called at report time, never on hot paths.
void export_to_metrics(const PerfCounters& counters,
                       obs::MetricsRegistry& registry, std::string_view tool);

}  // namespace cham::trace
