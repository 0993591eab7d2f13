// ScalaReplay equivalent: re-execute a compressed trace on the minimpi
// runtime and measure its virtual completion time.
//
// Every rank interprets the (single, global) trace, executing the events
// whose ranklist contains it: computation is simulated by advancing the
// virtual clock with each event's delta-time representative, communication
// is re-issued with endpoints re-resolved against the replaying rank's own
// id (the paper's enhancement: all members of a cluster replay their lead's
// trace, transposing relative parameters automatically).
//
// The accuracy metric is the paper's: ACC = 1 - |t - t'| / t.
//
// Replay degrades gracefully when the clustered trace is an approximation
// (K below the natural behaviour-group count): receives and collectives
// the trace leaves unmatched are cancelled or force-completed instead of
// deadlocking, and counted in ReplayResult.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace cham::replay {

struct ReplayOptions {
  int nprocs = 0;  ///< world size to replay at (required)
};

struct ReplayResult {
  /// Virtual completion time of the slowest rank (the paper's replay time).
  double vtime = 0.0;
  std::uint64_t events_replayed = 0;
  std::uint64_t messages = 0;
  std::uint64_t collectives = 0;
  /// Approximation events (0 when the trace replays exactly).
  std::uint64_t cancelled_recvs = 0;
  std::uint64_t forced_collectives = 0;
};

/// Replay `trace` on a fresh engine. Throws on a structurally broken trace
/// (e.g. ranks disagreeing on a collective's operation); unmatched receives
/// and collectives are cancelled or force-completed and counted instead.
ReplayResult replay_trace(const std::vector<trace::TraceNode>& trace,
                          const ReplayOptions& options);

/// ACC = 1 - |reference - measured| / reference  (clamped to [0, 1]).
double replay_accuracy(double reference_seconds, double measured_seconds);

}  // namespace cham::replay
