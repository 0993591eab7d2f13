#include "sim/shard.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "analysis/race/annotate.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/timeline.hpp"
#include "sim/context.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace cham::sim {

namespace prof = obs::prof;

using detail::sanitizer_post_switch;
using detail::sanitizer_pre_switch;
using detail::sanitizer_unpoison;
using detail::ShardFiber;
using detail::ShardFiberState;
using detail::tsan_free_fiber;
using detail::tsan_make_fiber;
using detail::tsan_switch;
using detail::tsan_this_fiber;

#if !defined(__x86_64__) || !defined(__linux__)
#error "cham_fiber_switch and cham_fiber_start are x86-64 Linux only: port them (src/sim/shard.cpp) to this target"
#endif

// The register-only fiber switch. cham_fiber_switch(save_sp, load_sp)
// pushes the callee-saved registers and an 8-byte slot holding MXCSR (low
// half) and the x87 control word, stores rsp through save_sp, loads load_sp
// and unwinds the same layout from there. Everything else is caller-saved
// under the SysV ABI, so the compiler already spilled it around the call.
// A fresh fiber's first frame (initial_frame) "returns" into
// cham_fiber_start with r12 = the fiber and r13 = the trampoline; the thunk
// calls it with an ABI-aligned stack and marks rip undefined, so unwinders
// and debuggers stop there.
extern "C" {
void cham_fiber_switch(void** save_sp, void* load_sp);
void cham_fiber_start();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl cham_fiber_switch
  .hidden cham_fiber_switch
  .type cham_fiber_switch, @function
cham_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size cham_fiber_switch, .-cham_fiber_switch

  .p2align 4
  .globl cham_fiber_start
  .hidden cham_fiber_start
  .type cham_fiber_start, @function
cham_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size cham_fiber_start, .-cham_fiber_start
  .popsection
)");

namespace {

/// Build a fresh fiber's first frame below the page-aligned `top` and
/// return the stack pointer cham_fiber_switch loads to enter it. Layout,
/// top down: 16 zero bytes (cham_fiber_start runs at top - 16, 16-byte
/// aligned), the cham_fiber_start return address, rbp rbx r12 r13 r14 r15
/// (rbp = 0 ends frame-pointer walks), then the FP control slot. The fiber
/// starts with the spawning thread's MXCSR and x87 control word.
void* initial_frame(char* top, ShardFiber* fiber,
                    void (*entry)(ShardFiber*)) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  auto* slot = reinterpret_cast<std::uint64_t*>(top) - 10;
  slot[9] = 0;
  slot[8] = 0;
  slot[7] = reinterpret_cast<std::uintptr_t>(&cham_fiber_start);
  slot[6] = 0;                                           // rbp
  slot[5] = 0;                                           // rbx
  slot[4] = reinterpret_cast<std::uintptr_t>(fiber);     // r12
  slot[3] = reinterpret_cast<std::uintptr_t>(entry);     // r13
  slot[2] = 0;                                           // r14
  slot[1] = 0;                                           // r15
  slot[0] = mxcsr | (std::uint64_t{fpu_cw} << 32);
  return slot;
}

/// Slab chunks are at least this large: 256 default-size stacks per mmap.
constexpr std::size_t kSlabChunkBytes = std::size_t{64} << 20;

/// Stack-end alarm, run by yield() and block() before they change any
/// state: no guard page protects a slab stack, so a fiber reaching a switch
/// point must still have a quarter of its stack (64 KiB at the default
/// size) left — room for this throw and its unwinding.
void check_stack_headroom(const ShardFiber& fiber) {
  const auto sp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  const auto floor = reinterpret_cast<std::uintptr_t>(fiber.stack.data()) +
                     fiber.stack.size() / 4;
  CHAM_CHECK_MSG(sp > floor,
                 "rank " + std::to_string(fiber.id) +
                     " reached a switch point with its stack pointer in the "
                     "lowest quarter of its " +
                     std::to_string(fiber.stack.size() / 1024) +
                     " KiB fiber stack");
}

/// Fiber id executing on *this* thread (-1 in scheduler/planner code).
/// Thread-local so every shard worker — and the engine's log-rank provider
/// running on it — sees only its own fiber.
thread_local int tls_current_fiber = -1;

/// Installs the rank context for log records emitted on this worker thread
/// (the provider is thread-local) and clears it on every exit path, so an
/// exception out of the planner cannot leave it pointing at a dead
/// scheduler.
class LogRankProviderScope {
 public:
  explicit LogRankProviderScope(const ShardedScheduler& sched) {
    support::set_log_rank_provider([&sched] { return sched.current(); });
  }
  ~LogRankProviderScope() { support::set_log_rank_provider(nullptr); }
  LogRankProviderScope(const LogRankProviderScope&) = delete;
  LogRankProviderScope& operator=(const LogRankProviderScope&) = delete;
};

}  // namespace

namespace detail {

StackSlab::~StackSlab() {
  for (const Chunk& chunk : chunks_) {
    // Frames a fiber never returned from (its trampoline) leave ASan
    // redzones behind; a later mapping of this range must not inherit them.
    sanitizer_unpoison(chunk.base, chunk.bytes);
    munmap(chunk.base, chunk.bytes);
  }
}

std::span<char> StackSlab::carve(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t rounded = (bytes + page - 1) / page * page;
  if (static_cast<std::size_t>(end_ - cursor_) < rounded) {
    const std::size_t size = std::max(kSlabChunkBytes, rounded);
    void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CHAM_CHECK_MSG(base != MAP_FAILED,
                   std::string("fiber stack slab mmap: ") +
                       std::strerror(errno));
    // One 2 MiB huge page would back eight whole stacks, all but a few
    // pages of each untouched. Advisory: a kernel without THP refuses it.
    (void)madvise(base, size, MADV_NOHUGEPAGE);
    chunks_.push_back({static_cast<char*>(base), size});
    cursor_ = static_cast<char*>(base);
    end_ = cursor_ + size;
  }
  const std::span<char> stack(cursor_, rounded);
  cursor_ += rounded;
  return stack;
}

ShardFiber::ShardFiber(std::span<char> stack, std::function<void()> fn)
    : stack(stack), entry(std::move(fn)) {}

ShardFiber::~ShardFiber() { tsan_free_fiber(tsan_fiber); }

}  // namespace detail

ShardedScheduler::ShardedScheduler(int nthreads) {
  CHAM_CHECK_MSG(nthreads >= 1, "need at least one shard");
  shards_.reserve(static_cast<std::size_t>(nthreads));
  for (int s = 0; s < nthreads; ++s)
    shards_.push_back(std::make_unique<Shard>());
}

ShardedScheduler::~ShardedScheduler() {
  // run() joins its workers before returning; a ShardedScheduler destroyed
  // without run() has no threads.
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
}

int ShardedScheduler::spawn(std::function<void()> entry,
                            std::size_t stack_bytes) {
  CHAM_CHECK_MSG(!ran_, "spawn must precede run()");
  auto fiber = std::make_unique<ShardFiber>(stacks_.carve(stack_bytes),
                                            std::move(entry));
  fiber->id = static_cast<int>(fibers_.size());
  fiber->shard = fiber->id % static_cast<int>(shards_.size());
  fiber->sched = this;
  fiber->sp = initial_frame(fiber->stack.data() + fiber->stack.size(),
                            fiber.get(), &trampoline);
  fiber->tsan_fiber = tsan_make_fiber();

  shards_[static_cast<std::size_t>(fiber->shard)]->ready.push_back(fiber->id);
  fibers_.push_back(std::move(fiber));
  const int id = fibers_.back()->id;
  race::fork(id);
  return id;
}

void ShardedScheduler::trampoline(ShardFiber* fiber) {
  ShardedScheduler* sched = fiber->sched;
  Shard& shard = *sched->shards_[static_cast<std::size_t>(fiber->shard)];
  // First time on this stack; the stack we came from is the shard worker's.
  sanitizer_post_switch(nullptr, &shard.main_stack_bottom,
                        &shard.main_stack_size);
  try {
    fiber->entry();
  } catch (const detail::FiberCancelled&) {
    // Deliberate unwind during cancellation; not an application error.
  } catch (...) {
    sched->record_exception();
  }
  {
    // Cross-shard unblock() reads this fiber's state under the shard lock,
    // so the final transition must take it too.
    const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
    fiber->state = ShardFiberState::kFinished;
  }
  sched->finished_.fetch_add(1, std::memory_order_relaxed);
  // This stack is dying: release its fake stack (nullptr save slot) and
  // hand the thread back to the shard worker for good.
  sanitizer_pre_switch(nullptr, shard.main_stack_bottom,
                       shard.main_stack_size);
  tsan_switch(shard.main_tsan_fiber);
  cham_fiber_switch(&fiber->sp, shard.main_sp);
  __builtin_unreachable();
}

void ShardedScheduler::record_exception() {
  const std::lock_guard<std::mutex> lock(error_m_);
  if (!pending_exception_) pending_exception_ = std::current_exception();
}

void ShardedScheduler::run() {
  CHAM_CHECK_MSG(!ran_, "ShardedScheduler::run may be called once");
  ran_ = true;
  // The scheduler owns its worker tracks: name them here so every consumer
  // (engine runs, tests, future serve jobs) gets readable Perfetto rows.
  if (obs::Timeline* tl = obs::timeline()) {
    for (std::size_t s = 1; s < shards_.size(); ++s)
      tl->set_track_name(obs::Timeline::shard_tid(static_cast<int>(s)),
                         "shard " + std::to_string(s));
  }
  if (prof::Profiler* prof = prof::profiler())
    prof->bind_shards(static_cast<int>(shards_.size()));
  for (std::size_t s = 1; s < shards_.size(); ++s)
    shards_[s]->worker =
        std::thread([this, s] { worker_loop(static_cast<int>(s)); });
  worker_loop(0);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // Join-all: run() returning means every fiber's work happens-before the
  // caller's post-run reads (the final worker join is the real HB edge).
  for (const auto& fiber : fibers_) race::acquire("fiber.state", fiber->id);
  if (pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
  if (!deadlock_message_.empty()) throw DeadlockError(deadlock_message_);
}

void ShardedScheduler::worker_loop(int shard_index) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  if (shard.main_tsan_fiber == nullptr)
    shard.main_tsan_fiber = tsan_this_fiber();
  const LogRankProviderScope log_rank(*this);
  prof::bind_worker_shard(shard_index);
  while (barrier_and_plan(shard_index)) run_epoch(shard_index);
  prof::bind_worker_shard(0);
}

bool ShardedScheduler::barrier_and_plan(int shard_index) {
  prof::Profiler* prof = prof::profiler();
  const double t_arrive = prof != nullptr ? prof::host_seconds() : 0.0;
  std::unique_lock<std::mutex> lock(coord_m_);
  if (++coord_waiting_ == static_cast<int>(shards_.size())) {
    // Last arriver plans the next epoch while everyone else is parked: it
    // has exclusive access to all shard and engine state. The lock chain
    // through coord_m_ (each worker locked it on arrival, after its last
    // fiber write) is the happens-before edge that makes the planner's
    // cross-shard reads — queues, the stall handler — race-free.
    if (prof != nullptr) {
      // Slot writes are exclusive: this thread owns its slot and every
      // other worker is parked on the barrier.
      prof::ShardSlot& slot = prof->slot(shard_index);
      const double t_plan = prof::host_seconds();
      slot.barrier_wait_seconds += t_plan - t_arrive;  // coord_m_ acquire
      plan_epoch();
      slot.plan_seconds += prof::host_seconds() - t_plan;
      ++slot.epochs_planned;
    } else {
      plan_epoch();
    }
    coord_waiting_ = 0;
    ++coord_gen_;
    coord_cv_.notify_all();
  } else {
    const std::uint64_t gen = coord_gen_;
    coord_cv_.wait(lock, [&] { return coord_gen_ != gen; });
    if (prof != nullptr)
      prof->slot(shard_index).barrier_wait_seconds +=
          prof::host_seconds() - t_arrive;
  }
  return !done_;
}

void ShardedScheduler::start_cancel() {
  cancelling_.store(true, std::memory_order_release);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
    for (auto& fiber : fibers_) {
      if (static_cast<std::size_t>(fiber->shard) != s) continue;
      if (fiber->state != ShardFiberState::kBlocked) continue;
      fiber->state = ShardFiberState::kReady;
      shard.ready.push_back(fiber->id);
    }
  }
}

void ShardedScheduler::plan_epoch() {
  while (true) {
    // Merge / inspect every shard's ready set. Sorting by id makes the
    // epoch's run order independent of the (thread-timing dependent) order
    // in which wake-ups arrived.
    std::size_t total_ready = 0;
    for (auto& shard : shards_) {
      const prof::TimedLockGuard lock(shard->m, prof::LockClass::kShardQueue);
      std::sort(shard->ready.begin(), shard->ready.end());
      total_ready += shard->ready.size();
    }

    if (total_ready == 0) {
      if (finished_.load(std::memory_order_acquire) == fibers_.size()) {
        done_ = true;
        return;
      }
      if (!cancelling_.load(std::memory_order_relaxed)) {
        {
          const std::lock_guard<std::mutex> lock(error_m_);
          if (pending_exception_) {
            start_cancel();
            continue;
          }
        }
        if (stall_handler_) {
          // Quiescence: every live fiber is parked (its worker is waiting
          // on the barrier), so the handler's repairs are ordered after
          // everything those fibers did.
          for (const auto& fiber : fibers_)
            race::acquire("fiber.state", fiber->id);
          race::set_task(-1);
          if (stall_handler_()) continue;
        }
        deadlock_message_ = deadlock_report();
        start_cancel();
        continue;
      }
      // Cancelling with nothing ready and fibers unaccounted for cannot
      // happen (start_cancel readies every blocked fiber; running fibers
      // requeue or finish) — but never hang if it somehow does.
      done_ = true;
      return;
    }

    {
      const std::lock_guard<std::mutex> lock(error_m_);
      if (pending_exception_ &&
          !cancelling_.load(std::memory_order_relaxed)) {
        start_cancel();
        continue;
      }
    }

    // Every ready fiber runs this epoch.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
      shard.run_list.assign(shard.ready.begin(), shard.ready.end());
      shard.ready.clear();
      if (seed_ != 0 && shard.run_list.size() > 1) {
        // Deterministic per (seed, shard, epoch) — independent of thread
        // timing, reproducible across runs and thread counts with the same
        // shard count.
        support::Rng rng(support::mix64(
            seed_ ^ support::mix64((epochs_ << 8) | (s + 1))));
        for (std::size_t i = shard.run_list.size() - 1; i > 0; --i) {
          const auto j =
              static_cast<std::size_t>(rng.next_below(i + 1));
          std::swap(shard.run_list[i], shard.run_list[j]);
        }
      }
    }
    if (prof::Profiler* prof = prof::profiler()) {
      // Ready-queue depth per shard for this epoch. Plain reads: every
      // worker is parked, ordered through coord_m_.
      std::vector<std::uint32_t> depth(shards_.size());
      for (std::size_t s = 0; s < shards_.size(); ++s)
        depth[s] = static_cast<std::uint32_t>(shards_[s]->run_list.size());
      prof->note_epoch(epochs_ + 1, depth);
    }
    ++epochs_;
    return;
  }
}

void ShardedScheduler::run_epoch(int shard_index) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  std::vector<int> list;
  {
    const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
    list.swap(shard.run_list);
  }
  for (const int id : list) {
    ShardFiber& fiber = *fibers_[static_cast<std::size_t>(id)];
    bool runnable = false;
    bool retired_in_place = false;
    {
      const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
      if (fiber.state == ShardFiberState::kReady) {
        if (cancelling_.load(std::memory_order_relaxed) && !fiber.started) {
          // Never entered: no stack to unwind, retire in place.
          fiber.state = ShardFiberState::kFinished;
          retired_in_place = true;
        } else {
          fiber.state = ShardFiberState::kRunning;
          fiber.started = true;
          runnable = true;
        }
      }
    }
    if (retired_in_place) finished_.fetch_add(1, std::memory_order_relaxed);
    if (!runnable) continue;
    dispatch(shard_index, fiber);
    bool retired = false;
    {
      const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
      if (fiber.state == ShardFiberState::kRunning) {
        // The fiber yielded cooperatively: still runnable next epoch.
        fiber.state = ShardFiberState::kReady;
        shard.ready.push_back(id);
      }
      retired = fiber.state == ShardFiberState::kFinished;
    }
    if (retired) {
      // Publish the retiree's final clock for the join-all edge.
      race::release("fiber.state", static_cast<std::uint64_t>(id));
    }
  }
}

void ShardedScheduler::dispatch(int shard_index, ShardFiber& fiber) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  tls_current_fiber = fiber.id;
  ++shard.switches;
  // Dispatch timing + the sampler-visible snapshot (relaxed atomics: the
  // ticker thread only needs *some* recent value, never ordering).
  prof::Profiler* prof = prof::profiler();
  prof::ShardSlot* slot = nullptr;
  double t_dispatch = 0.0;
  if (prof != nullptr) {
    slot = &prof->slot(shard_index);
    t_dispatch = prof::host_seconds();
    slot->cur_fiber.store(fiber.id, std::memory_order_relaxed);
    slot->cur_phase.store(static_cast<std::uint8_t>(prof::Phase::kEngine),
                          std::memory_order_relaxed);
  }
  obs::Timeline* tl = obs::timeline();
  if (tl != nullptr)
    tl->begin(obs::Timeline::shard_tid(shard_index),
              "rank " + std::to_string(fiber.id), "fiber");
  race::set_task(fiber.id);
  // A fiber's open PhaseScopes live on its stack and may straddle this
  // dispatch: park the worker's own chain, attach the fiber's, and swap
  // back afterwards so scopes never chain across fibers and the
  // blocked-out interval is excluded from the fiber's phase times.
  prof::PhaseScope* worker_scopes = prof::PhaseScope::suspend();
  prof::PhaseScope::resume(fiber.phase_top);
  sanitizer_pre_switch(&shard.main_sanitizer_stack, fiber.stack.data(),
                       fiber.stack.size());
  tsan_switch(fiber.tsan_fiber);
  cham_fiber_switch(&shard.main_sp, fiber.sp);
  sanitizer_post_switch(shard.main_sanitizer_stack, nullptr, nullptr);
  fiber.phase_top = prof::PhaseScope::suspend();
  prof::PhaseScope::resume(worker_scopes);
  race::set_task(-1);
  if (tl != nullptr) tl->end(obs::Timeline::shard_tid(shard_index));
  if (slot != nullptr) {
    slot->dispatch_seconds += prof::host_seconds() - t_dispatch;
    ++slot->dispatches;
    slot->cur_fiber.store(-1, std::memory_order_relaxed);
    slot->cur_phase.store(static_cast<std::uint8_t>(prof::Phase::kIdle),
                          std::memory_order_relaxed);
  }
  tls_current_fiber = -1;
}

void ShardedScheduler::switch_out(ShardFiber& fiber) {
  Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
  sanitizer_pre_switch(&fiber.sanitizer_stack, shard.main_stack_bottom,
                       shard.main_stack_size);
  tsan_switch(shard.main_tsan_fiber);
  cham_fiber_switch(&fiber.sp, shard.main_sp);
  sanitizer_post_switch(fiber.sanitizer_stack, nullptr, nullptr);
}

void ShardedScheduler::yield() {
  const int id = tls_current_fiber;
  CHAM_CHECK(id >= 0);
  if (cancelling_.load(std::memory_order_acquire))
    throw detail::FiberCancelled{};
  ShardFiber& fiber = *fibers_[static_cast<std::size_t>(id)];
  check_stack_headroom(fiber);
  switch_out(fiber);
  if (cancelling_.load(std::memory_order_acquire))
    throw detail::FiberCancelled{};
}

void ShardedScheduler::block(const char* label) {
  const int id = tls_current_fiber;
  CHAM_CHECK(id >= 0);
  if (cancelling_.load(std::memory_order_acquire))
    throw detail::FiberCancelled{};
  ShardFiber& fiber = *fibers_[static_cast<std::size_t>(id)];
  check_stack_headroom(fiber);
  Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
  {
    const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
    if (fiber.wake_pending) {
      // A wake-up raced this block: consume the token and return without
      // switching. The caller's condition loop re-checks and either
      // proceeds (the waker's work is visible — we hold the shard lock the
      // waker released) or blocks again for real.
      fiber.wake_pending = false;
      if (prof::Profiler* prof = prof::profiler())
        ++prof->slot(fiber.shard).wake_tokens;  // owner thread
      race::acquire("fiber.wake", static_cast<std::uint64_t>(id));
      return;
    }
    fiber.state = ShardFiberState::kBlocked;
    fiber.block_label = label;
  }
  // Publish this fiber's clock: stall-handler repairs and the final join
  // are ordered after everything it did before blocking.
  race::release("fiber.state", static_cast<std::uint64_t>(id));
  switch_out(fiber);
  // Whoever woke us released "fiber.wake" first; join their clock so their
  // writes (e.g. the delivered message) are ordered before our reads.
  race::acquire("fiber.wake", static_cast<std::uint64_t>(id));
  if (cancelling_.load(std::memory_order_acquire))
    throw detail::FiberCancelled{};
}

void ShardedScheduler::unblock(int id) {
  CHAM_CHECK(id >= 0 && id < static_cast<int>(fibers_.size()));
  ShardFiber& fiber = *fibers_[static_cast<std::size_t>(id)];
  Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
  const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
  if (fiber.state == ShardFiberState::kBlocked) {
    fiber.state = ShardFiberState::kReady;
    race::release("fiber.wake", static_cast<std::uint64_t>(id));
    // Woken fibers join the *next* epoch: the planner merges this entry at
    // the barrier, so eligibility never depends on wake-up timing.
    shard.ready.push_back(id);
  } else if (fiber.state == ShardFiberState::kRunning) {
    // The target is running (likely deciding to block on the condition we
    // just satisfied): leave a token so its next block() returns immediately
    // instead of losing this wake-up. A queued (kReady) target needs none —
    // its condition loop re-checks when it next runs.
    fiber.wake_pending = true;
    race::release("fiber.wake", static_cast<std::uint64_t>(id));
  }
}

void ShardedScheduler::exit_current() {
  CHAM_CHECK_MSG(tls_current_fiber >= 0,
                 "exit_current must be called from a fiber");
  throw detail::FiberCancelled{};
}

int ShardedScheduler::current() const { return tls_current_fiber; }

std::size_t ShardedScheduler::finished_count() const {
  return finished_.load(std::memory_order_acquire);
}

bool ShardedScheduler::finished(int id) const {
  const ShardFiber& fiber = *fibers_.at(static_cast<std::size_t>(id));
  Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
  const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
  return fiber.state == ShardFiberState::kFinished;
}

bool ShardedScheduler::blocked(int id) const {
  const ShardFiber& fiber = *fibers_.at(static_cast<std::size_t>(id));
  Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
  const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
  return fiber.state == ShardFiberState::kBlocked;
}

std::string ShardedScheduler::block_note(int id) const {
  const ShardFiber& fiber = *fibers_.at(static_cast<std::size_t>(id));
  const char* label = nullptr;
  {
    Shard& shard = *shards_[static_cast<std::size_t>(fiber.shard)];
    const prof::TimedLockGuard lock(shard.m, prof::LockClass::kShardQueue);
    if (fiber.state == ShardFiberState::kBlocked) label = fiber.block_label;
  }
  if (label == nullptr) return {};
  std::string note = label;
  // Outside the shard lock: the describer takes the caller's own locks.
  if (block_describer_) {
    const std::string detail = block_describer_(id);
    if (!detail.empty()) note += ' ' + detail;
  }
  return note;
}

std::uint64_t ShardedScheduler::switch_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->switches;
  return total;
}

std::uint64_t ShardedScheduler::epochs() const {
  const std::lock_guard<std::mutex> lock(coord_m_);
  return epochs_;
}

std::string ShardedScheduler::deadlock_report() {
  std::ostringstream os;
  os << "minimpi deadlock: "
     << fibers_.size() - finished_.load(std::memory_order_acquire)
     << " fibers alive but none runnable\n";
  std::size_t listed = 0;
  for (const auto& fiber : fibers_) {
    if (!blocked(fiber->id)) continue;
    if (++listed > 16) {
      os << "  ...\n";
      break;
    }
    os << "  rank " << fiber->id << ": " << block_note(fiber->id) << '\n';
  }
  return os.str();
}

}  // namespace cham::sim
