// Chameleon configuration.
#pragma once

#include <cstdint>

#include "cluster/select.hpp"

namespace cham::durable {
class Checkpointer;
struct RecoveredState;
}  // namespace cham::durable

namespace cham::core {

/// Fault tolerance: when more than this fraction of cluster leads have died,
/// the current clustering is abandoned and every survivor falls back to
/// all-ranks tracing until the next clustering pass (too much of the
/// representative coverage is gone for lead-only tracing to stand in for
/// the groups).
inline constexpr double kDegradeFraction = 0.5;

struct ChameleonConfig {
  /// Cluster budget K (Table I fixes it per benchmark: 3 for BT/SP/POP,
  /// 9 for LU/S3D/LUW, 2 for EMF). Grows dynamically if the number of
  /// distinct Call-Paths exceeds it.
  std::size_t k = 9;

  /// Algorithm 3's Call_Frequency: only every Nth marker call is processed.
  int call_frequency = 1;

  /// Lead-selection policy for Find-Top-K (Algorithm 2).
  cluster::SelectPolicy policy = cluster::SelectPolicy::kFarthest;

  /// Seed for the k-random policy.
  std::uint64_t seed = 0;

  /// ChamScope and the ChamRace determinism audit: record one
  /// obs::EpochRecord per processed marker (state, cluster table, per-rank
  /// lead assignment, and the digest of the epoch's cluster table and
  /// online trace) for `chamtrace report` and `chamtrace race`. Comparing
  /// the digest sequences of runs under different scheduler seeds proves
  /// (or pinpoints, by first divergent epoch) schedule independence. Off by
  /// default — a record costs O(P) plus one encode of the table and the
  /// online trace per marker.
  bool record_epochs = false;

  /// §VII automation: when no explicit markers are inserted, detect the
  /// application's iterative structure and synthesize interim execution
  /// points. Heuristic: the first world-collective call site observed to
  /// recur becomes the marker site — for iterative SPMD codes every rank
  /// sees the same collective sequence, so the decision is globally
  /// consistent without communication. Codes without a recurring world
  /// collective fall back to finalize-only clustering (the paper: marker
  /// automation works "in some cases").
  bool auto_marker = false;

  /// ChamDurable: when set, every processed marker journals one RankRecord
  /// per live rank plus the home rank's EpochDelta (the commit marker), and
  /// the journal is periodically folded into an atomic snapshot. Owned by
  /// the caller; the tool only appends/queries. Also changes failure
  /// handling: a promoted lead restores the dead lead's last journaled
  /// partial trace instead of emitting a GAP node (and the loss does not
  /// count toward kDegradeFraction).
  durable::Checkpointer* checkpointer = nullptr;

  /// ChamDurable resume: recovered state from durable::recover(). The tool
  /// restores the global protocol state up front, fast-forwards the
  /// deterministic workload replay through the first `resume->epoch`
  /// processed markers without tracing or protocol work, then has each
  /// rank adopt its journaled record and continue live.
  const durable::RecoveredState* resume = nullptr;
};

/// The transition-graph states of Figure 2. kLead covers both the quiet
/// lead phase and the flush that ends it (Table II counts both as L).
enum class MarkerState : std::uint8_t {
  kAllTracing,  // AT
  kClustering,  // C
  kLead,        // L
  kFinal,       // F
};

const char* marker_state_name(MarkerState state);

/// What Algorithm 1 tells Algorithm 3 to do at one processed marker.
enum class MarkerAction : std::uint8_t {
  kNone,        // AT / quiet lead phase: keep going
  kCluster,     // C: cluster, merge lead traces, reset partials
  kFlush,       // L: phase change — merge lead traces with old clusters
};

}  // namespace cham::core
