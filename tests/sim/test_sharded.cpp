// ChamShard: the engine's fiber scheduler and its engine integration
// (sim/shard.hpp, EngineOptions::threads).
//
// Two layers of coverage:
//   - ShardedScheduler unit tests, at 1, 2 and 4 shards unless a case pins
//     a single-thread order: fibers run to completion, block/unblock hand
//     off, exceptions and deadlocks propagate only after every fiber stack
//     unwound, the wake-token protocol turns an unblock() racing a block()
//     into an immediate return instead of a lost wakeup. The register-only
//     switch keeps the FP control state per fiber, enters and resumes
//     fibers with an ABI-aligned stack, lets exceptions cross a yield, and
//     fails loudly when a fiber switches out low on stack.
//   - Engine determinism matrix: the protocol output of a (workload, P,
//     seed) triple — per-epoch digests, the final cluster table bytes, and
//     the --perf counter totals — must be identical at every thread count.
//     This is the contract tools/check.sh and `chamtrace race` audit at
//     larger scale; docs/ENGINE.md explains why it holds.
// Build with -DCHAM_TSAN=ON to validate this slice under ThreadSanitizer
// (the tools/check.sh TSan leg runs `ctest -L "race|engine"`).
#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "obs/prof/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/mpi.hpp"
#include "trace/callsite.hpp"
#include "trace/perf.hpp"
#include "workloads/workload.hpp"

namespace cham {
namespace {

constexpr std::size_t kStack = 64 * 1024;
constexpr int kShardCounts[] = {1, 2, 4};

TEST(Fiber, RunsAllToCompletion) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    std::atomic<int> done{0};
    for (int i = 0; i < 5; ++i)
      sched.spawn([&done] { done.fetch_add(1, std::memory_order_relaxed); },
                  kStack);
    sched.run();
    EXPECT_EQ(done.load(), 5);
    EXPECT_EQ(sched.finished_count(), 5u);
  }
}

TEST(Fiber, RoundRobinIsDeterministicFifo) {
  // One shard: every epoch runs the ready fibers in rank order.
  sim::ShardedScheduler sched(1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.spawn(
        [&sched, &order, i] {
          order.push_back(i);
          sched.yield();
          order.push_back(i + 10);
        },
        kStack);
  }
  sched.run();
  const std::vector<int> expected = {0, 1, 2, 10, 11, 12};
  EXPECT_EQ(order, expected);
}

TEST(Fiber, ProfilerScopeChainsStayFiberLocal) {
  // One shard, all fibers on the calling thread: every yield hands the
  // thread to a fiber whose own scopes are still open on its stack. Each
  // fiber's chain must be parked at the dispatch boundary, or the next
  // fiber's scope chains onto it and leave() writes through a dangling
  // parent once the first fiber unwinds.
  obs::prof::Profiler prof;
  obs::prof::set_profiler(&prof);
  {
    sim::ShardedScheduler sched(1);
    for (int i = 0; i < 4; ++i)
      sched.spawn(
          [&sched] {
            const obs::prof::PhaseScope outer(obs::prof::Phase::kClustering);
            sched.yield();
            {
              const obs::prof::PhaseScope inner(obs::prof::Phase::kFold);
              sched.yield();
            }
            sched.yield();
          },
          kStack);
    sched.run();
  }
  obs::prof::set_profiler(nullptr);
  const obs::prof::ShardSlot& slot = prof.slot(0);
  const auto at = [&](obs::prof::Phase p) {
    return slot.phase_seconds[static_cast<std::size_t>(p)];
  };
  EXPECT_GT(at(obs::prof::Phase::kFold), 0.0);
  EXPECT_GE(at(obs::prof::Phase::kClustering), 0.0);
  EXPECT_EQ(slot.cur_phase.load(),
            static_cast<std::uint8_t>(obs::prof::Phase::kIdle));
}

TEST(Fiber, BlockUnblockHandshake) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    std::vector<std::string> events;
    // Fiber 0 blocks; fiber 1 waits until it has, then unblocks it. The
    // shard lock inside block()/blocked()/unblock() orders the pushes.
    sched.spawn(
        [&] {
          events.push_back("a-before");
          sched.block("waiting for b");
          events.push_back("a-after");
        },
        kStack);
    sched.spawn(
        [&] {
          while (!sched.blocked(0)) sched.yield();
          events.push_back("b");
          sched.unblock(0);
        },
        kStack);
    sched.run();
    const std::vector<std::string> expected = {"a-before", "b", "a-after"};
    EXPECT_EQ(events, expected);
  }
}

TEST(Fiber, UnblockOfReadyFiberIsNoop) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn([&sched] { sched.unblock(1); }, kStack);
    sched.spawn([] {}, kStack);
    EXPECT_NO_THROW(sched.run());
  }
}

TEST(Fiber, DeadlockDetected) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn([&sched] { sched.block("forever"); }, kStack);
    EXPECT_THROW(sched.run(), sim::DeadlockError);
  }
}

TEST(Fiber, DeadlockReportNamesBlockedFiber) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn([&sched] { sched.block("waiting for godot"); }, kStack);
    try {
      sched.run();
      FAIL() << "expected deadlock";
    } catch (const sim::DeadlockError& e) {
      EXPECT_NE(std::string(e.what()).find("waiting for godot"),
                std::string::npos);
    }
  }
}

TEST(Fiber, ExceptionPropagatesToRun) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn([] { throw std::logic_error("boom"); }, kStack);
    sched.spawn([] {}, kStack);
    EXPECT_THROW(sched.run(), std::logic_error);
  }
}

TEST(Fiber, CurrentIdInsideFiber) {
  // One shard: fibers run in rank order on the calling thread.
  sim::ShardedScheduler sched(1);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i)
    sched.spawn([&] { ids.push_back(sched.current()); }, kStack);
  sched.run();
  const std::vector<int> expected = {0, 1, 2, 3};
  EXPECT_EQ(ids, expected);
  EXPECT_EQ(sched.current(), -1);
}

TEST(Fiber, ManyFibersScale) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    std::atomic<int> counter{0};
    const int n = 1024;
    for (int i = 0; i < n; ++i)
      sched.spawn(
          [&sched, &counter] {
            counter.fetch_add(1, std::memory_order_relaxed);
            sched.yield();
            counter.fetch_add(1, std::memory_order_relaxed);
          },
          kStack);
    sched.run();
    EXPECT_EQ(counter.load(), 2 * n);
    EXPECT_GE(sched.switch_count(), static_cast<std::uint64_t>(2 * n));
  }
}

TEST(Fiber, NestedSpawnRejected) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn(
        [&sched] { EXPECT_ANY_THROW(sched.spawn([] {}, kStack)); }, kStack);
    sched.run();
  }
}

TEST(Fiber, FloatingPointControlIsPerFiber) {
  // Fiber 0 and fiber `shards` share shard 0 and run in that order: the
  // second sees the default rounding mode while the first is switched out
  // with FE_UPWARD, and the first gets FE_UPWARD back on resume.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    std::atomic<int> resumed_mode{-1};
    std::atomic<int> neighbour_mode{-1};
    sched.spawn(
        [&sched, &resumed_mode] {
          std::fesetround(FE_UPWARD);
          sched.yield();
          resumed_mode.store(std::fegetround());
          std::fesetround(FE_TONEAREST);
        },
        kStack);
    for (int i = 1; i < shards; ++i) sched.spawn([] {}, kStack);
    sched.spawn(
        [&sched, &neighbour_mode] {
          neighbour_mode.store(std::fegetround());
          sched.yield();
        },
        kStack);
    sched.run();
    EXPECT_EQ(resumed_mode.load(), FE_UPWARD);
    EXPECT_EQ(neighbour_mode.load(), FE_TONEAREST);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  }
}

/// The address of `p` through an opaque register, so the compiler cannot
/// fold an alignment test it believes true by construction.
std::uintptr_t opaque_address(const volatile void* p) {
  auto address = reinterpret_cast<std::uintptr_t>(p);
  asm volatile("" : "+r"(address));
  return address;
}

/// alignas(16) locals are placed relative to the stack pointer, trusting
/// the caller's stack to be ABI-aligned; alignas(64) makes the compiler
/// realign the frame. Separate frames, so one cannot mask the other.
[[gnu::noinline]] bool local_aligned_16() {
  alignas(16) volatile char a16[16] = {};
  return opaque_address(a16) % 16 == 0;
}

[[gnu::noinline]] bool local_aligned_64() {
  alignas(64) volatile char a64[64] = {};
  return opaque_address(a64) % 64 == 0;
}

bool locals_aligned() { return local_aligned_16() && local_aligned_64(); }

TEST(Fiber, OverAlignedLocalsAlignedOnEntryAndResume) {
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    constexpr int kFibers = 8;
    std::atomic<int> aligned_entries{0};
    std::atomic<int> aligned_resumes{0};
    for (int i = 0; i < kFibers; ++i)
      sched.spawn(
          [&] {
            if (locals_aligned()) aligned_entries.fetch_add(1);
            sched.yield();
            if (locals_aligned()) aligned_resumes.fetch_add(1);
          },
          kStack);
    sched.run();
    EXPECT_EQ(aligned_entries.load(), kFibers);
    EXPECT_EQ(aligned_resumes.load(), kFibers);
  }
}

TEST(Fiber, ExceptionCaughtAcrossYieldLeavesRunIntact) {
  // Every fiber is switched out inside a try block while its shard
  // neighbours throw and catch in theirs; each throw must find its own
  // fiber's handler and leave the others' frames alone.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    constexpr int kFibers = 8;
    std::atomic<int> caught{0};
    std::atomic<int> finished{0};
    for (int i = 0; i < kFibers; ++i)
      sched.spawn(
          [&sched, &caught, &finished, i] {
            try {
              sched.yield();
              throw std::runtime_error("fiber " + std::to_string(i));
            } catch (const std::runtime_error& e) {
              if (e.what() == "fiber " + std::to_string(i))
                caught.fetch_add(1);
            }
            sched.yield();
            finished.fetch_add(1);
          },
          kStack);
    EXPECT_NO_THROW(sched.run());
    EXPECT_EQ(caught.load(), kFibers);
    EXPECT_EQ(finished.load(), kFibers);
    EXPECT_EQ(sched.finished_count(), static_cast<std::size_t>(kFibers));
  }
}

/// Recurse through 1 KiB frames until this frame is `depth` bytes below
/// `top`, then yield from there.
[[gnu::noinline]] void descend_and_yield(sim::ShardedScheduler& sched,
                                         const char* top, std::size_t depth) {
  volatile char frame[1024];
  frame[0] = 1;
  const auto* here = static_cast<const char*>(__builtin_frame_address(0));
  if (static_cast<std::size_t>(top - here) < depth)
    descend_and_yield(sched, top, depth);
  else
    sched.yield();
  frame[1] = frame[0];  // keeps the frame live across the call
}

TEST(Fiber, StackEndAlarmNamesTheFiber) {
  // The alarm line sits a quarter of the stack above its low end (16 KiB
  // here). Fiber 1 yields from 1 KiB past it; run() must rethrow the
  // check naming rank 1 once every fiber unwound.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    sched.spawn([&sched] { sched.yield(); }, kStack);
    sched.spawn(
        [&sched] {
          const auto* top =
              static_cast<const char*>(__builtin_frame_address(0));
          descend_and_yield(sched, top, kStack * 3 / 4 + 1024);
        },
        kStack);
    try {
      sched.run();
      FAIL() << "expected the stack-end alarm";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1 "), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sched.finished_count(), 2u);
  }
}

TEST(ShardedScheduler, RunsEveryFiberAcrossShards) {
  sim::ShardedScheduler sched(4);
  EXPECT_EQ(sched.shards(), 4);
  std::atomic<int> total{0};
  constexpr int kFibers = 16;
  for (int i = 0; i < kFibers; ++i)
    sched.spawn(
        [&sched, &total] {
          for (int y = 0; y < 3; ++y) sched.yield();
          total.fetch_add(1, std::memory_order_relaxed);
        },
        kStack);
  EXPECT_EQ(sched.fiber_count(), static_cast<std::size_t>(kFibers));
  sched.run();
  EXPECT_EQ(total.load(), kFibers);
  EXPECT_EQ(sched.finished_count(), static_cast<std::size_t>(kFibers));
  // Three yields each means at least four barrier rounds ran.
  EXPECT_GE(sched.epochs(), 4u);
}

TEST(ShardedScheduler, ShardCountClampsToOne) {
  sim::ShardedScheduler sched(1);
  EXPECT_EQ(sched.shards(), 1);
  bool ran = false;
  sched.spawn([&ran] { ran = true; }, kStack);
  sched.run();
  EXPECT_TRUE(ran);
}

TEST(ShardedScheduler, ProfilerScopeChainsStayFiberLocal) {
  // Regression: PhaseScopes on fiber stacks straddle yields, so each
  // worker must park the outgoing fiber's scope chain at the dispatch
  // boundary instead of letting the next fiber chain onto it (dangling
  // parent writes once the first fiber unwinds). Multiple fibers per
  // shard make every epoch interleave open scopes on each worker.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    obs::prof::Profiler prof;
    obs::prof::set_profiler(&prof);
    {
      sim::ShardedScheduler sched(shards);
      for (int i = 0; i < 8; ++i)
        sched.spawn(
            [&sched] {
              const obs::prof::PhaseScope outer(
                  obs::prof::Phase::kClustering);
              sched.yield();
              {
                const obs::prof::PhaseScope inner(obs::prof::Phase::kFold);
                sched.yield();
              }
              sched.yield();
            },
            kStack);
      sched.run();
    }
    obs::prof::set_profiler(nullptr);
    double fold = 0.0;
    for (int s = 0; s < shards; ++s)
      fold += prof.slot(s).phase_seconds[static_cast<std::size_t>(
          obs::prof::Phase::kFold)];
    EXPECT_GT(fold, 0.0);
    EXPECT_EQ(prof.slot(0).cur_phase.load(),
              static_cast<std::uint8_t>(obs::prof::Phase::kIdle));
  }
}

TEST(ShardedScheduler, WakeTokenPreventsLostWakeup) {
  // Fiber 0 (shard 0) wakes fiber 1 (shard 1); both run concurrently in
  // the same epoch, so the unblock may land before, during, or after the
  // block. Every interleaving must complete: if the wake arrives early the
  // token makes the next block() return immediately, if it arrives late
  // the fiber is moved back to its shard's ready queue. A lost wakeup
  // would deadlock (and fail the test with DeadlockError).
  sim::ShardedScheduler sched(2);
  std::atomic<bool> flag{false};
  sched.spawn(
      [&sched, &flag] {
        flag.store(true, std::memory_order_release);
        sched.unblock(1);
      },
      kStack);
  sched.spawn(
      [&sched, &flag] {
        while (!flag.load(std::memory_order_acquire))
          sched.block("waiting for flag");
      },
      kStack);
  sched.run();
  EXPECT_EQ(sched.finished_count(), 2u);
}

TEST(ShardedScheduler, DeadlockUnwindsStacksBeforeThrowing) {
  struct Guard {
    std::atomic<bool>* flag;
    ~Guard() { flag->store(true, std::memory_order_release); }
  };
  for (const int shards : kShardCounts) {
    SCOPED_TRACE(shards);
    sim::ShardedScheduler sched(shards);
    std::atomic<bool> unwound{false};
    sched.spawn(
        [&sched, &unwound] {
          const Guard g{&unwound};
          sched.block("never woken");  // no one will unblock fiber 0
        },
        kStack);
    sched.spawn([] {}, kStack);
    EXPECT_THROW(sched.run(), sim::DeadlockError);
    EXPECT_TRUE(unwound.load(std::memory_order_acquire));
  }
}

TEST(ShardedScheduler, BlockNoteAppendsDescriberDetail) {
  sim::ShardedScheduler sched(2);
  std::string seen;
  std::string after;
  sched.spawn([&sched] { sched.block("MPI_Wait"); }, kStack);
  sched.set_block_describer(
      [](int id) { return "detail of " + std::to_string(id); });
  sched.set_stall_handler([&] {
    if (!seen.empty()) return false;
    seen = sched.block_note(0);
    sched.unblock(0);
    after = sched.block_note(0);
    return true;
  });
  sched.run();
  EXPECT_EQ(seen, "MPI_Wait detail of 0");
  EXPECT_EQ(after, "");  // no note once the fiber is runnable again
}

TEST(ShardedScheduler, BlockNoteVisibleToStallHandler) {
  sim::ShardedScheduler sched(2);
  std::string seen;
  sched.spawn([&sched] { sched.block("waiting on message"); }, kStack);
  sched.set_stall_handler([&sched, &seen] {
    if (!seen.empty()) return false;
    seen = sched.block_note(0);
    sched.unblock(0);
    return true;
  });
  sched.run();
  EXPECT_EQ(seen, "waiting on message");
}

// --- engine determinism matrix ---------------------------------------------

struct RunOutput {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint8_t> table;
  trace::PerfCounters perf;
};

RunOutput run_workload(const std::string& name, int procs, int steps,
                       std::uint64_t seed, int threads,
                       int perturb_every = 0) {
  const workloads::WorkloadInfo* info = workloads::find_workload(name);
  EXPECT_NE(info, nullptr) << name;
  sim::Engine engine(sim::EngineOptions{
      .nprocs = procs, .sched_seed = seed, .threads = threads});
  trace::CallSiteRegistry stacks(procs);
  core::ChameleonConfig config;
  config.record_epochs = true;
  core::ChameleonTool tool(procs, &stacks, config);
  engine.set_tool(&tool);
  workloads::WorkloadParams params{.cls = 'A', .timesteps = steps};
  params.perturb_every = perturb_every;
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  RunOutput out;
  for (const obs::EpochRecord& epoch : tool.epochs())
    out.digests.push_back(epoch.digest);
  out.table = tool.clusters().encode();
  out.perf = tool.perf_counters();
  return out;
}

TEST(ShardedEngine, ClusterTablesByteIdenticalAcrossThreadsAndSeeds) {
  struct Case {
    const char* workload;
    int steps;
    int perturb_every;
  };
  // lu_mod flushes and re-clusters every third step: pins the marker
  // protocol's re-clustering, not just the steady-state tables.
  for (const Case c : {Case{"lu", 4, 0}, Case{"sweep3d", 4, 0},
                       Case{"lu_mod", 9, 3}}) {
    const char* workload = c.workload;
    const RunOutput base =
        run_workload(workload, 8, c.steps, 0, 1, c.perturb_every);
    ASSERT_FALSE(base.digests.empty()) << workload;
    ASSERT_FALSE(base.table.empty()) << workload;
    for (const int threads : {2, 8}) {
      for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{5}}) {
        const RunOutput got =
            run_workload(workload, 8, c.steps, seed, threads, c.perturb_every);
        EXPECT_EQ(got.digests, base.digests)
            << workload << " threads=" << threads << " seed=" << seed;
        EXPECT_EQ(got.table, base.table)
            << workload << " threads=" << threads << " seed=" << seed;
      }
    }
  }
}

TEST(ShardedEngine, PerfTotalsExactAcrossThreadCounts) {
  // PerfCounters are accumulated per rank by the owning fiber and summed at
  // report time, so the totals must be *exactly* equal — not approximately —
  // no matter how ranks were spread over shards.
  const RunOutput base = run_workload("lu", 8, 4, 0, 1);
  const RunOutput sharded = run_workload("lu", 8, 4, 0, 4);
  EXPECT_EQ(sharded.perf.fold_windows_tested, base.perf.fold_windows_tested);
  EXPECT_EQ(sharded.perf.folds_performed, base.perf.folds_performed);
  EXPECT_EQ(sharded.perf.merge_prechecks, base.perf.merge_prechecks);
  EXPECT_EQ(sharded.perf.merge_deep_compares, base.perf.merge_deep_compares);
  EXPECT_EQ(sharded.perf.bytes_encoded, base.perf.bytes_encoded);
  EXPECT_EQ(sharded.perf.bytes_decoded, base.perf.bytes_decoded);
  EXPECT_GT(base.perf.fold_windows_tested, 0u);
}

TEST(ShardedEngine, DeadlockReportedUnderThreads) {
  sim::Engine engine(sim::EngineOptions{.nprocs = 8, .threads = 4});
  EXPECT_THROW(
      engine.run([](sim::Mpi& mpi) {
        // Everyone receives, nobody sends: a full-world deadlock that the
        // planner must detect with all shards parked.
        mpi.recv((mpi.rank() + 1) % mpi.size(), 64, 7);
      }),
      sim::DeadlockError);
}

TEST(ShardedEngine, FaultCrashBehavesIdenticallyUnderThreads) {
  const auto iterations = [](int threads) {
    sim::FaultInjector injector(
        sim::FaultPlan::parse("crash rank=2 call=3"));
    sim::Engine engine(sim::EngineOptions{.nprocs = 4, .threads = threads});
    engine.set_fault_injector(&injector);
    std::vector<int> iters(4, 0);
    engine.run([&](sim::Mpi& mpi) {
      for (int i = 0; i < 10; ++i) {
        mpi.barrier();
        ++iters[static_cast<std::size_t>(mpi.rank())];
      }
    });
    return iters;
  };
  const std::vector<int> single = iterations(1);
  EXPECT_EQ(iterations(4), single);
  EXPECT_LT(single[2], 10);  // the crashed rank stopped early
}

}  // namespace
}  // namespace cham
