// ChamProf — host-time profiler for the sharded engine.
//
// Everything else in the observability layer (timelines, metrics, --perf)
// lives on the *virtual* clock, so nothing could say where real wall time
// goes: how long workers sit at the epoch barrier, which mutex is hot, or
// whether the protocol or the obs sinks dominate a slow run. ChamProf adds
// two host-clock feeds:
//
//   1. Scheduler telemetry — per-shard counters (barrier wait, plan time,
//      dispatch time, ready-queue depth, wake-token round trips) written by
//      each shard's worker thread (or by the planner while every worker is
//      parked, which is the same exclusivity), timed-acquire lock-contention
//      tallies for the engine and sink mutexes, and host-time phase
//      attribution (PhaseScope) splitting engine vs protocol (fold,
//      radix/inter merge, clustering, lead merge) vs obs-sink overhead.
//   2. A sampling profiler — a ticker thread that periodically snapshots
//      each worker's published state (running fiber id, phase tag, epoch)
//      into folded-stack counts consumable by flamegraph tooling.
//
// Cost model: like the timeline/metrics sinks, the whole subsystem hangs
// off one global pointer (set_profiler). Null — the default — makes every
// hook a load-acquire plus branch: no clock read, no atomic RMW. Building
// with -DCHAMELEON_PROF=OFF compiles profiler() down to a constant nullptr
// so the branch folds away entirely; tools/check.sh gates the compiled-in-
// but-disabled configuration against that baseline. The profiler also
// measures itself: sampler and export time land in the exported
// "overhead.profiling_seconds" counter.
//
// Export: `chameleon.prof.v1` JSON (docs/OBSERVABILITY.md documents the
// schema) and Perfetto counter tracks merged into an existing Timeline.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"

namespace cham::obs {
class Timeline;
}  // namespace cham::obs

namespace cham::obs::prof {

/// True when the hooks are compiled in (the default). -DCHAMELEON_PROF=OFF
/// defines CHAM_PROF_DISABLED and every hook folds to nothing.
#if defined(CHAM_PROF_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Host clock (CLOCK_MONOTONIC, ~20ns vDSO): real time, unlike the virtual
/// clocks everything else in the tree measures.
[[nodiscard]] double host_seconds();

// --------------------------------------------------------------------------
// Lock contention
// --------------------------------------------------------------------------

/// Every profiled mutex class in the engine, the tracer's process-wide
/// tables and the obs sinks. Keep lock_class_name() in sync.
enum class LockClass : std::uint8_t {
  kMailbox = 0,   ///< per-(comm, rank) posted/unexpected queues
  kInbox,         ///< per-rank completion inbox
  kCollMap,       ///< collective site table (one per comm insert/erase)
  kCollSite,      ///< per-(comm, slot) collective rendezvous state
  kShardQueue,    ///< per-shard ready/run lists + fiber states
  kTimelineSink,  ///< Timeline internal mutex
  kMetricsSink,   ///< MetricsRegistry internal mutex
  kIntern,        ///< rank-list intern table (trace/ranklist.cpp)
  kCallSites,     ///< call-site name table (trace/callsite.cpp)
  kCount
};
[[nodiscard]] const char* lock_class_name(LockClass c);

/// Process-wide tally for one lock class. `contended` counts acquisitions
/// that missed the try_lock fast path; only those pay the two clock reads
/// that feed `wait_ns`.
struct LockStats {
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contended{0};
  std::atomic<std::uint64_t> wait_ns{0};
};

// --------------------------------------------------------------------------
// Phase attribution
// --------------------------------------------------------------------------

/// Host-time phase tags. kEngine is derived at export time (dispatch time
/// minus every measured scope) rather than scoped directly; kIdle is what
/// the sampler sees between dispatches. Keep phase_name() in sync.
enum class Phase : std::uint8_t {
  kIdle = 0,
  kEngine,       ///< fiber running outside any instrumented scope
  kFold,         ///< append_online interval fold
  kRadixMerge,   ///< binomial radix merge rounds
  kInterMerge,   ///< inter_merge DP inside a merge round
  kClustering,   ///< hierarchical clustering exchange
  kLeadMerge,    ///< lead merge into the online trace
  kObsSink,      ///< Timeline/MetricsRegistry mutation
  kCount
};
[[nodiscard]] const char* phase_name(Phase p);

// --------------------------------------------------------------------------
// Per-shard telemetry slot
// --------------------------------------------------------------------------

/// One shard's counters. Plain fields are owner-written: only the shard's
/// worker thread (or the epoch planner, which runs with every worker parked
/// on the barrier — the coord_m_ lock chain is the happens-before edge)
/// touches them, and readers wait for run() to join. The atomics are the
/// sampler-visible snapshot, written relaxed by the owner.
struct alignas(64) ShardSlot {
  double barrier_wait_seconds = 0.0;
  double plan_seconds = 0.0;
  double dispatch_seconds = 0.0;
  std::uint64_t epochs_planned = 0;  ///< epochs this shard's worker planned
  std::uint64_t dispatches = 0;
  std::uint64_t wake_tokens = 0;      ///< wake-pending tokens consumed
  std::uint64_t ready_depth_sum = 0;  ///< summed over planned epochs
  std::uint64_t ready_depth_max = 0;
  std::array<double, static_cast<std::size_t>(Phase::kCount)> phase_seconds{};

  std::atomic<int> cur_fiber{-1};
  std::atomic<std::uint8_t> cur_phase{static_cast<std::uint8_t>(Phase::kIdle)};
};

/// Hard cap on tracked shards (slots are a fixed array so the hot-path
/// lookup is lock-free); shard indices beyond it alias the last slot.
inline constexpr int kMaxShards = 128;

struct ProfilerOptions {
  std::uint64_t sample_interval_us = 500;  ///< sampler tick period
  std::size_t max_epoch_samples = 65536;   ///< counter-track series bound
};

// --------------------------------------------------------------------------
// Profiler
// --------------------------------------------------------------------------

class Profiler {
 public:
  explicit Profiler(ProfilerOptions opts = {});
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // --- scheduler telemetry -------------------------------------------------

  /// Declare the shard count of the scheduler about to run (grow-only; a
  /// later engine run with fewer shards accumulates into the same slots).
  void bind_shards(int nshards);
  [[nodiscard]] int shards_bound() const {
    return nshards_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ShardSlot& slot(int shard) {
    const int i = shard >= 0 && shard < kMaxShards ? shard : kMaxShards - 1;
    return slots_[static_cast<std::size_t>(i)];
  }

  /// Timed acquire: try_lock first (uncontended = one relaxed increment, no
  /// clock read); only a miss pays two clock reads around the blocking lock.
  void lock_acquire(std::mutex& m, LockClass c);
  [[nodiscard]] LockStats& lock_stats(LockClass c) {
    return locks_[static_cast<std::size_t>(c)];
  }

  /// Planner hook (all workers parked): fold this epoch's per-shard ready
  /// depths into the slots and append one bounded counter-track sample.
  void note_epoch(std::uint64_t epoch, const std::vector<std::uint32_t>& depth);

  // --- sampling profiler ---------------------------------------------------

  void start_sampling();
  void stop_sampling();  ///< joins the ticker; folded stacks become readable
  [[nodiscard]] std::uint64_t samples_taken() const {
    return samples_.load(std::memory_order_acquire);
  }

  // --- self-measurement ----------------------------------------------------

  void add_self_seconds(double s) {
    self_ns_.fetch_add(static_cast<std::uint64_t>(s * 1e9),
                       std::memory_order_relaxed);
  }
  [[nodiscard]] double self_seconds() const {
    return static_cast<double>(self_ns_.load(std::memory_order_acquire)) * 1e-9;
  }

  // --- export --------------------------------------------------------------

  /// The chameleon.prof.v1 document. Call after the run (and after
  /// stop_sampling()); export time is added to the overhead counter.
  void to_json(support::json::Writer& w);
  [[nodiscard]] std::string to_json_string(bool pretty = true);

  /// Merge per-shard ready-depth counter tracks ("C" events on dedicated
  /// negative tids) into an existing timeline, plus a total-ready track.
  void export_counter_tracks(Timeline& tl);

 private:
  friend class PhaseScope;

  struct EpochSample {
    double t = 0.0;  ///< host_seconds() at plan time
    std::uint64_t epoch = 0;
    std::vector<std::uint32_t> depth;  ///< per-shard ready depth
  };

  void sampler_loop();

  ProfilerOptions opts_;
  std::array<ShardSlot, static_cast<std::size_t>(kMaxShards)> slots_;
  std::array<LockStats, static_cast<std::size_t>(LockClass::kCount)> locks_;
  std::atomic<int> nshards_{0};
  std::atomic<std::uint64_t> cur_epoch_{0};

  /// Epoch counter series; planner-written, export-read (post-run).
  std::vector<EpochSample> epoch_series_;
  std::uint64_t epoch_samples_dropped_ = 0;
  std::uint64_t epochs_planned_total_ = 0;

  // Sampler state. folded_ and the min/max epochs are ticker-thread-owned
  // while sampling; stop_sampling()'s join publishes them to the exporter.
  std::thread sampler_;
  std::mutex sampler_m_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  bool sampling_ = false;
  std::map<std::string, std::uint64_t> folded_;
  std::uint64_t sampler_ticks_ = 0;
  std::uint64_t epoch_sampled_min_ = 0;
  std::uint64_t epoch_sampled_max_ = 0;
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> self_ns_{0};
};

/// Process-wide profiler. Null (the default) disables every hook; with
/// CHAMELEON_PROF=OFF the accessor is a compile-time nullptr and the hooks
/// vanish from the binary.
[[nodiscard]] Profiler* profiler_slot();
void set_profiler(Profiler* p);
[[nodiscard]] inline Profiler* profiler() {
#if defined(CHAM_PROF_DISABLED)
  return nullptr;
#else
  return profiler_slot();
#endif
}

// --------------------------------------------------------------------------
// Hook helpers
// --------------------------------------------------------------------------

/// Bind the calling thread to a shard slot (worker_loop does this; the
/// driving thread defaults to shard 0).
void bind_worker_shard(int shard);
[[nodiscard]] int worker_shard();

/// RAII host-time phase attribution. Nested scopes subtract child time, so
/// each phase accumulates *self* seconds; the scope also publishes the
/// phase tag for the sampler and restores the previous one on exit. With
/// no profiler installed the constructor is one load and branch.
///
/// Scopes live on fiber stacks and may straddle blocking MPI calls, so the
/// innermost-scope chain is *fiber-local*, not thread-local: the fiber
/// scheduler detaches the outgoing fiber's chain at every dispatch boundary
/// (suspend) and reattaches it when the fiber next runs (resume). Without
/// that handoff a fiber dispatched while another is blocked mid-scope
/// would chain onto the blocked fiber's stack-resident scope.
class PhaseScope {
 public:
  explicit PhaseScope(Phase p) : prof_(profiler()) {
    if (prof_ != nullptr) enter(p);
  }
  ~PhaseScope() {
    if (prof_ != nullptr) leave();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Dispatch-boundary hooks for the fiber scheduler. suspend() detaches
  /// the calling thread's open scope chain, stamping the park time so none
  /// of the blocked-out interval is attributed; the scheduler stores the
  /// returned chain with the fiber. resume() reattaches a fiber's chain on
  /// the thread about to run it and re-publishes the innermost phase tag
  /// for the sampler; resume(nullptr) just clears the thread's chain.
  [[nodiscard]] static PhaseScope* suspend();
  static void resume(PhaseScope* top);

 private:
  void enter(Phase p);
  void leave();

  Profiler* prof_;
  PhaseScope* parent_ = nullptr;
  Phase phase_ = Phase::kIdle;
  std::uint8_t prev_tag_ = 0;
  double t0_ = 0.0;
  double child_seconds_ = 0.0;
  double paused_seconds_ = 0.0;  ///< dispatch-parked time, excluded on leave
  double paused_at_ = 0.0;       ///< host_seconds() at the last suspend()
};

/// Drop-in lock_guard replacement feeding the contention tallies. With no
/// profiler installed it degenerates to lock()/unlock().
class TimedLockGuard {
 public:
  TimedLockGuard(std::mutex& m, LockClass c) : m_(m) {
    Profiler* prof = profiler();
    if (prof == nullptr)
      m_.lock();
    else
      prof->lock_acquire(m_, c);
  }
  ~TimedLockGuard() { m_.unlock(); }
  TimedLockGuard(const TimedLockGuard&) = delete;
  TimedLockGuard& operator=(const TimedLockGuard&) = delete;

 private:
  std::mutex& m_;
};

}  // namespace cham::obs::prof
