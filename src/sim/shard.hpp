// ChamShard: the engine's fiber scheduler.
//
// Every simulated MPI rank runs as one cooperatively scheduled fiber.
// Rank fibers are partitioned round-robin across a fixed pool of shards
// (rank r lives on shard r % S forever); every shard owns a run queue and a
// worker thread that is the only thread ever executing — or resuming — its
// fibers, so each fiber's stack, saved stack pointer, and ASan bookkeeping
// stay thread-pinned for life. With one shard the driving thread is the only
// worker and no thread is spawned.
//
// A switch is one register-only routine (cham_fiber_switch in shard.cpp):
// it saves the callee-saved registers, MXCSR and the x87 control word on the
// departing stack and loads the other stack pointer — no system call, no
// signal mask. Fiber stacks are page-rounded slices of a scheduler-owned
// mmap slab (StackSlab), so no stack carries a malloc header page and every
// stack top is page-aligned. No stack has a guard page; yield() and block()
// instead fail loudly, naming the rank, when a fiber reaches them with its
// stack pointer inside the lowest quarter of its stack (docs/ENGINE.md).
//
// Execution proceeds in epochs separated by a pool-wide barrier (the
// SimGrid/SMPI scheduling-round discipline):
//
//   1. All workers park on the barrier. The last arriver becomes the
//      planner: it merges freshly woken fibers into the shard run queues and
//      makes every ready fiber eligible. The engine's vtime algebra makes
//      protocol output independent of intra-epoch order; see
//      docs/ENGINE.md.
//   2. The barrier releases; each shard runs its eligible fibers — in rank
//      order, or seeded-shuffled per (seed, shard, epoch) when a scheduler
//      seed is set — exactly once, in parallel with the other shards.
//      Fibers woken mid-epoch become eligible at the next barrier, never
//      the current one, so eligibility is independent of thread timing.
//   3. Repeat until every fiber finished, or nothing is ready: then the
//      planner runs the stall handler (all workers parked, so it sees a
//      fully quiescent engine), and failing that captures a deadlock report,
//      unwinds every surviving fiber stack (so destructors run and nothing
//      leaks), and run() throws DeadlockError instead of hanging. A blocked
//      fiber stores only a string-literal label; the report asks the block
//      describer for the detail (what the rank waits for), so the block
//      path itself never formats or allocates.
//
// Wake-ups racing a block are handled with a per-fiber wake token: an
// unblock() that finds its target running (about to block on the very
// condition the caller just satisfied) sets wake_pending instead of being
// dropped; the target's next block() consumes the token and returns
// immediately. A target that is merely queued gets no token: it re-checks
// its condition when it next runs. Engine block sites are all condition
// loops, so the spurious return re-checks and either proceeds or blocks for
// real — a lost wakeup is structurally impossible.
//
// The scheduler is also the source of ChamRace's happens-before edges
// (docs/RACE.md): spawn forks the child's clock, block/unblock and the
// stall-handler quiescence are modelled as sync objects, and every dispatch
// announces the new task.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cham::obs::prof {
class PhaseScope;
}  // namespace cham::obs::prof

namespace cham::sim {

/// Thrown by ShardedScheduler::run once every live fiber has been unwound
/// after a confirmed deadlock (no runnable fiber, stall handler exhausted).
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ShardedScheduler;

namespace detail {

/// Thrown inside a fiber to force a clean stack unwind during cancellation.
/// Deliberately not derived from std::exception so application-level
/// `catch (const std::exception&)` handlers cannot swallow it.
struct FiberCancelled {};

enum class ShardFiberState : std::uint8_t {
  kReady,
  kRunning,
  kBlocked,
  kFinished
};

/// Fiber stacks carved from anonymous mmap chunks (MAP_NORESERVE, no
/// transparent huge pages). Every stack is page-rounded and page-aligned,
/// so two stacks never share a page and none carries a malloc header page;
/// untouched pages cost address space only. The chunks are unmapped when
/// the slab dies, so it must outlive every fiber running on its stacks.
class StackSlab {
 public:
  StackSlab() = default;
  ~StackSlab();
  StackSlab(const StackSlab&) = delete;
  StackSlab& operator=(const StackSlab&) = delete;

  /// A fresh stack of `bytes` rounded up to whole pages.
  std::span<char> carve(std::size_t bytes);

 private:
  struct Chunk {
    char* base;
    std::size_t bytes;
  };
  std::vector<Chunk> chunks_;
  char* cursor_ = nullptr;  ///< next free byte of the newest chunk
  char* end_ = nullptr;     ///< end of the newest chunk
};

/// One rank fiber pinned to a shard. `state`, `wake_pending`, and
/// `block_label` are guarded by the owning shard's mutex; the stack and
/// saved stack pointer are touched only by the owning shard's worker thread.
struct ShardFiber {
  ShardFiber(std::span<char> stack, std::function<void()> fn);
  ~ShardFiber();
  ShardFiber(const ShardFiber&) = delete;
  ShardFiber& operator=(const ShardFiber&) = delete;

  /// Saved stack pointer while switched out (cham_fiber_switch).
  void* sp = nullptr;
  std::span<char> stack;  ///< this fiber's slab stack (not owned)
  std::function<void()> entry;
  ShardFiberState state = ShardFiberState::kReady;
  int id = -1;
  int shard = 0;
  bool started = false;
  /// A wake-up arrived while the fiber was off the blocked list; consumed
  /// by its next block() (see the wake-token protocol above).
  bool wake_pending = false;
  ShardedScheduler* sched = nullptr;
  /// What the fiber blocked in: a string literal, meaningful only while
  /// `state` is kBlocked.
  const char* block_label = nullptr;
  void* sanitizer_stack = nullptr;
  void* tsan_fiber = nullptr;
  /// Open ChamProf scope chain, parked while the fiber is switched out
  /// (the scopes live on this fiber's stack, which is worker-thread-pinned
  /// for life; see PhaseScope::suspend).
  obs::prof::PhaseScope* phase_top = nullptr;
};

}  // namespace detail

class ShardedScheduler {
 public:
  /// A pool of `nthreads` shards/workers (>= 1). The driving thread that
  /// calls run() doubles as shard 0's worker, so nthreads == 1 spawns no
  /// threads at all.
  explicit ShardedScheduler(int nthreads);
  ~ShardedScheduler();
  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  /// Create a fiber; it becomes runnable immediately. Returns its id
  /// (dense, starting at 0 — used as the MPI rank). Must be called before
  /// run(), from the driving thread.
  int spawn(std::function<void()> entry, std::size_t stack_bytes);

  /// Drive all fibers to completion. Rethrows the first exception a fiber
  /// raised. Throws DeadlockError on deadlock — in both cases only after
  /// every remaining fiber stack has been unwound (destructors run).
  void run();

  /// Consulted when no fiber is runnable but some are still alive;
  /// returning true means it unblocked something and the run continues,
  /// false falls through to the deadlock report. It runs on the planner
  /// with every worker parked, so it may freely inspect cross-rank state.
  void set_stall_handler(std::function<bool()> handler) {
    stall_handler_ = std::move(handler);
  }

  /// Composes the detail of a blocked fiber's note (what it waits for)
  /// from the caller's own state. Called only when a note is read — by
  /// block_note() and the deadlock report, both on a quiescent engine — so
  /// blocking itself stays free of formatting.
  void set_block_describer(std::function<std::string(int)> describer) {
    block_describer_ = std::move(describer);
  }

  /// Seed != 0 replaces rank-order dispatch with a shuffle per (seed,
  /// shard, epoch), reproducible per seed and shard count. Used by the
  /// determinism auditor; call before run().
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  // --- called from inside a fiber ---

  /// Yield but stay runnable (the fiber runs again next epoch).
  void yield();

  /// Mark the current fiber blocked and switch away. Returns once some
  /// other fiber calls unblock() on it, or spuriously when a wake token is
  /// pending; callers must re-check their condition in a loop. `label`
  /// names what blocks (e.g. "MPI_Wait"); only the pointer is stored, so it
  /// must be a string literal.
  void block(const char* label);

  /// Make a blocked fiber runnable again (next epoch). Callable from any
  /// fiber, from any shard, or from the stall handler.
  void unblock(int id);

  /// Terminate the calling fiber immediately by unwinding its stack (the
  /// FiberCancelled path cancellation uses; destructors run). Used to kill
  /// a single rank — e.g. an injected crash — without disturbing the others.
  [[noreturn]] void exit_current();

  /// Id of the fiber currently executing on the *calling thread*; -1 when
  /// called from scheduler/planner code.
  [[nodiscard]] int current() const;
  [[nodiscard]] std::size_t fiber_count() const { return fibers_.size(); }
  [[nodiscard]] std::size_t finished_count() const;

  /// Introspection for analysis tools: fiber lifecycle state and the
  /// blocker's note — the block label, then the describer's detail — empty
  /// unless blocked. Valid when the target fiber is quiescent (stall
  /// handler, post-run).
  [[nodiscard]] bool finished(int id) const;
  [[nodiscard]] bool blocked(int id) const;
  [[nodiscard]] std::string block_note(int id) const;
  /// Total fiber context switches performed (diagnostics).
  [[nodiscard]] std::uint64_t switch_count() const;

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  /// Barrier rounds executed (diagnostics; tests assert epoch progress).
  [[nodiscard]] std::uint64_t epochs() const;

 private:
  /// Per-shard state. The mutex guards the ready/run lists and every
  /// owned fiber's state/wake/reason fields; the context/stack fields
  /// below it belong exclusively to the shard's worker thread.
  struct Shard {
    std::mutex m;
    std::vector<int> ready;     ///< runnable fiber ids (unordered between epochs)
    std::vector<int> run_list;  ///< this epoch's eligible ids, in run order
    std::uint64_t switches = 0;

    void* main_sp = nullptr;  ///< worker's saved stack pointer
    void* main_sanitizer_stack = nullptr;
    void* main_tsan_fiber = nullptr;
    const void* main_stack_bottom = nullptr;
    std::size_t main_stack_size = 0;
    std::thread worker;  ///< shards 1..S-1; shard 0 runs on the driver
  };

  /// First frame of every fiber, entered from cham_fiber_start; ends by
  /// switching to its shard's worker for good.
  [[noreturn]] static void trampoline(detail::ShardFiber* fiber);
  void worker_loop(int shard_index);
  /// Park on the epoch barrier; the last arriver plans the next epoch.
  /// Returns false once the pool is shutting down. The shard index feeds
  /// the per-shard ChamProf barrier-wait/plan counters.
  bool barrier_and_plan(int shard_index);
  /// Runs on the planner with every worker parked: merge wakes, fill the
  /// run lists — or handle stall/cancel/done.
  void plan_epoch();
  void run_epoch(int shard_index);
  void dispatch(int shard_index, detail::ShardFiber& fiber);
  /// Switch from the calling fiber back to its shard's worker (yield and
  /// block).
  void switch_out(detail::ShardFiber& fiber);
  void start_cancel();
  [[nodiscard]] std::string deadlock_report();
  void record_exception();

  detail::StackSlab stacks_;  ///< declared first: outlives fibers_
  std::vector<std::unique_ptr<detail::ShardFiber>> fibers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Epoch barrier: generation-counted so workers cannot miss a release.
  mutable std::mutex coord_m_;
  std::condition_variable coord_cv_;
  int coord_waiting_ = 0;
  std::uint64_t coord_gen_ = 0;
  std::uint64_t epochs_ = 0;  ///< guarded by coord_m_
  bool done_ = false;         ///< guarded by coord_m_

  std::atomic<std::size_t> finished_{0};
  /// Set by the planner (all workers parked), read by fibers at block/yield
  /// cancellation points.
  std::atomic<bool> cancelling_{false};

  std::mutex error_m_;
  std::exception_ptr pending_exception_;  ///< first fiber exception wins
  std::string deadlock_message_;

  std::function<bool()> stall_handler_;
  std::function<std::string(int)> block_describer_;
  std::uint64_t seed_ = 0;
  bool ran_ = false;
};

}  // namespace cham::sim
