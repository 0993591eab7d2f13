// Cluster-evolution report (`chamtrace report`).
//
// The Chameleon tool records one EpochRecord per processed marker when
// ChameleonConfig::record_epochs is set. This module replays those records
// into the per-marker summary the paper's evaluation tables are built from:
// cluster count, lead ranks, and membership churn per epoch, plus the
// per-state trace-memory table (à la Table IV). Output renders as text,
// CSV, or JSON. Every field in the report is deterministic for a fixed
// workload + config (no wall-clock values), so golden tests can pin it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace cham::obs {

/// Snapshot of the clustering protocol at one processed marker.
struct EpochRecord {
  std::uint64_t marker = 0;   ///< 1-based processed-marker index
  std::string state;          ///< protocol state after the marker: AT/C/L/F
  std::string action;         ///< what Algorithm 1 decided: none/cluster/flush
  std::size_t callpaths = 0;  ///< distinct call-paths known at this epoch
  std::size_t clusters = 0;   ///< clusters in the current table
  std::vector<int> leads;     ///< lead ranks, ascending
  /// Per-rank assigned lead; -1 while unassigned (the rank traces for
  /// itself). Size = world size.
  std::vector<int> lead_of;
  /// Wire-image digest of what the epoch committed: the cluster table as
  /// broadcast and the online trace's structure (the determinism audit of
  /// `chamtrace race`; the report renderers do not print it).
  std::uint64_t digest = 0;
};

/// Aggregated trace memory charged to one protocol state (Table IV).
struct StateMemoryRow {
  std::string state;
  std::uint64_t ranks = 0;        ///< ranks that traced in this state
  std::uint64_t calls = 0;        ///< events charged to the state
  std::uint64_t bytes_total = 0;  ///< summed across ranks
  std::uint64_t bytes_min = 0;
  std::uint64_t bytes_max = 0;
};

struct ReportInput {
  std::string workload;
  int nranks = 0;
  std::vector<EpochRecord> epochs;
  std::vector<StateMemoryRow> memory;
};

/// Membership churn between consecutive epochs: the number of ranks whose
/// effective lead changed, where an unassigned rank's lead is itself.
[[nodiscard]] int churn(const EpochRecord& prev, const EpochRecord& cur);

[[nodiscard]] std::string render_text(const ReportInput& input);
[[nodiscard]] std::string render_csv(const ReportInput& input);
void render_json(const ReportInput& input, support::json::Writer& w);

}  // namespace cham::obs
