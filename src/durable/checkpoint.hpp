// ChamDurable checkpoint/restart: epoch snapshots + write-ahead journal.
//
// Directory layout (all artifacts carry the run's config digest):
//   manifest.bin   — sealed RunManifest; written once at create time
//   snapshot.bin   — latest ProtocolSnapshot, published crash-atomically
//   journal.bin    — WAL of RankRecords + EpochDeltas since that snapshot
//
// Commit protocol per epoch E:
//   1. every live rank appends its own RankRecord (buffered write; the
//      owning fiber is the single writer of its record),
//   2. the epoch's closing barrier runs (so records precede the delta in
//      file order),
//   3. the home rank appends the EpochDelta and fsyncs — the commit point.
// Every `snapshot_every` commits the journal is folded into a fresh
// snapshot (tmp + fsync + rename + dir fsync) and a new journal started.
//
// recover() rebuilds the newest committed state: snapshot, then deltas in
// file order (skipping epochs <= snapshot epoch, so a crash between the
// snapshot rename and the journal swap cannot double-apply). A torn final
// frame — the SIGKILL signature — is dropped silently; real corruption is
// a typed trace::DecodeError.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "durable/snapshot.hpp"

namespace cham::durable {

inline constexpr std::uint16_t kManifestVersion = 1;

/// Everything needed to re-execute the run deterministically and to refuse
/// artifacts from a differently-configured run. digest() is embedded in
/// every snapshot/journal envelope. The image also carries the fold window
/// and the degrade fraction, written from trace::kMaxWindow and
/// core::kDegradeFraction; a manifest holding other values is rejected.
struct RunManifest {
  std::string workload;  ///< e.g. "lu", "mg"
  std::string cls = "S";
  std::int32_t timesteps = 0;
  std::int32_t procs = 0;
  std::uint64_t k = 0;
  std::int32_t call_frequency = 1;
  std::uint8_t policy = 0;
  std::uint64_t seed = 0;
  bool auto_marker = false;
  std::string fault_plan;  ///< resolved plan text; empty = fault-free
  std::uint64_t fault_seed = 0;
  std::uint64_t sched_seed = 0;
  std::int32_t snapshot_every = 8;

  [[nodiscard]] std::uint64_t digest() const;
};

std::vector<std::uint8_t> encode_manifest(const RunManifest& m);
RunManifest decode_manifest(const std::vector<std::uint8_t>& bytes);

/// Result of recover(): the newest committed protocol state plus replay
/// bookkeeping for diagnostics.
struct RecoveredState {
  RunManifest manifest;
  std::uint64_t epoch = 0;  ///< epochs committed (0 = nothing durable yet)
  bool finalized = false;   ///< the run had already flushed its final trace
  std::vector<std::uint8_t> online_wire;
  std::vector<std::uint8_t> clusters_wire;
  std::array<std::uint64_t, 4> state_counts{};
  std::uint64_t effective_k = 0;
  std::uint64_t num_callpaths = 0;
  std::vector<std::int32_t> gap_ranks;
  std::vector<std::pair<std::uint64_t, std::string>> sites;
  std::vector<RankRecord> ranks;  ///< per-rank state at `epoch`
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t journal_epochs_replayed = 0;
  bool journal_torn_tail = false;
};

/// Load and replay `dir`. Throws trace::DecodeError on corrupt artifacts,
/// std::system_error when the directory/manifest is missing.
RecoveredState recover(const std::string& dir);

struct CheckpointerOptions {
  std::int32_t snapshot_every = 8;  ///< epochs between snapshots (>=1)
  /// Test hook: raise SIGKILL right after committing this epoch (0 = off).
  std::uint64_t kill_after_epoch = 0;
};

/// Journals per-epoch protocol state and periodically folds the journal
/// into an atomic snapshot. Thread/fiber-safe: rank fibers append records
/// concurrently with the home rank's queries, guarded by a real mutex and
/// modelled for ChamRace as an atomic container (like the call-site intern
/// table) so the internal lock contributes no happens-before edges.
class Checkpointer {
 public:
  /// Initialise `dir` (created if missing) for a fresh run: writes the
  /// sealed manifest and an empty journal.
  static std::unique_ptr<Checkpointer> create(const std::string& dir,
                                              const RunManifest& manifest,
                                              CheckpointerOptions opts = {});
  /// Reattach to `dir` after recover(): journal appends continue after
  /// `recovered.epoch` and the rank-record cache is seeded from the
  /// recovery so in-run lead restore keeps working across the resume.
  static std::unique_ptr<Checkpointer> attach(const std::string& dir,
                                              const RecoveredState& recovered,
                                              CheckpointerOptions opts = {});

  /// Called by the owning rank fiber once its epoch work is done, before
  /// the epoch's closing barrier.
  void append_rank_record(const RankRecord& record);

  /// Called by the home rank after the closing barrier: append the delta,
  /// fsync (the commit point), roll a snapshot when due, and fire the
  /// kill_after_epoch test hook. `online_wire` is the post-append online
  /// trace image used if this commit triggers a snapshot.
  void commit_epoch(const EpochDelta& delta,
                    const std::vector<std::uint8_t>& online_wire);

  /// Newest journaled record for `rank` (any epoch), if one exists — the
  /// promoted lead's source for restoring a dead lead's partial trace.
  [[nodiscard]] std::optional<RankRecord> latest_rank_record(
      std::int32_t rank) const;

  [[nodiscard]] const RunManifest& manifest() const;
  [[nodiscard]] std::uint64_t epochs_committed() const;
  [[nodiscard]] std::uint64_t snapshots_written() const;
  [[nodiscard]] std::uint64_t records_appended() const;
  [[nodiscard]] std::uint64_t fsyncs() const;

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;
  ~Checkpointer();

 private:
  Checkpointer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cham::durable
