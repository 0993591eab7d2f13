// Epoch-parallel std::thread pilot for the sharded-engine roadmap item.
//
// The sharded engine will run epoch work on real threads. This pilot
// exercises the pieces that must already be thread-clean today:
//   - whole engine instances on concurrent threads (the intern table and
//     the global annotation/observability sinks are the only shared state),
//   - the atomic annotation-sink pointer under concurrent callbacks,
//   - a parallel per-node encode fold that must be byte-identical to the
//     serial wire image.
// Build with -DCHAM_TSAN=ON to validate the same binary under
// ThreadSanitizer (the tools/check.sh TSan leg runs exactly this slice).
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/race/annotate.hpp"
#include "core/chameleon.hpp"
#include "sim/engine.hpp"
#include "trace/callsite.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

namespace cham {
namespace {

std::vector<std::uint64_t> run_digests(const std::string& workload, int procs,
                                       int steps, std::uint64_t seed) {
  const workloads::WorkloadInfo* info = workloads::find_workload(workload);
  EXPECT_NE(info, nullptr) << workload;
  sim::Engine engine(sim::EngineOptions{.nprocs = procs, .sched_seed = seed});
  trace::CallSiteRegistry stacks(procs);
  core::ChameleonConfig config;
  config.record_epochs = true;
  core::ChameleonTool tool(procs, &stacks, config);
  engine.set_tool(&tool);
  workloads::WorkloadParams params{.cls = 'A', .timesteps = steps};
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  std::vector<std::uint64_t> digests;
  for (const obs::EpochRecord& epoch : tool.epochs())
    digests.push_back(epoch.digest);
  return digests;
}

TEST(EpochParallel, EnginePerThreadProducesIdenticalDigests) {
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> digests(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back(
        [&digests, t] { digests[static_cast<std::size_t>(t)] =
                            run_digests("lu", 8, 4, 0); });
  for (std::thread& th : pool) th.join();
  ASSERT_FALSE(digests[0].empty());
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(digests[static_cast<std::size_t>(t)], digests[0])
        << "thread " << t;
}

TEST(EpochParallel, ParallelSeedSweepMatchesSerialRuns) {
  // The determinism audit's seed sweep, but with every seed on its own
  // thread: results must match both each other and a serial re-run.
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  std::vector<std::vector<std::uint64_t>> parallel(seeds.size());
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < seeds.size(); ++i)
    pool.emplace_back([&parallel, &seeds, i] {
      parallel[i] = run_digests("racefix", 8, 4, seeds[i]);
    });
  for (std::thread& th : pool) th.join();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(parallel[i], run_digests("racefix", 8, 4, seeds[i]))
        << "seed " << seeds[i];
    EXPECT_EQ(parallel[i], parallel[0]) << "seed " << seeds[i];
  }
}

/// Thread-safe annotation sink: every callback is a relaxed atomic bump, so
/// it can stay installed while engines run on several threads at once.
class CountingSink final : public race::Sink {
 public:
  void on_read(std::string_view, std::uint64_t, std::uint64_t) override {
    accesses.fetch_add(1, std::memory_order_relaxed);
  }
  void on_write(std::string_view, std::uint64_t, std::uint64_t) override {
    accesses.fetch_add(1, std::memory_order_relaxed);
  }
  void on_atomic(std::string_view, std::uint64_t, std::uint64_t) override {
    atomics.fetch_add(1, std::memory_order_relaxed);
  }
  void on_acquire(std::string_view, std::uint64_t, std::uint64_t) override {
    syncs.fetch_add(1, std::memory_order_relaxed);
  }
  void on_release(std::string_view, std::uint64_t, std::uint64_t) override {
    syncs.fetch_add(1, std::memory_order_relaxed);
  }
  void on_task(int) override {
    scheds.fetch_add(1, std::memory_order_relaxed);
  }
  void on_fork(int) override {
    scheds.fetch_add(1, std::memory_order_relaxed);
  }
  void on_epoch() override {
    epochs.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> accesses{0};
  std::atomic<std::uint64_t> atomics{0};
  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> scheds{0};
  std::atomic<std::uint64_t> epochs{0};
};

TEST(EpochParallel, AnnotationSinkSurvivesConcurrentEngines) {
  CountingSink sink;
  race::set_sink(&sink);
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([] { (void)run_digests("racefix", 4, 2, 0); });
  for (std::thread& th : pool) th.join();
  race::set_sink(nullptr);
  EXPECT_GT(sink.accesses.load(), 0u);
  EXPECT_GT(sink.syncs.load(), 0u);
  EXPECT_GT(sink.scheds.load(), 0u);
  EXPECT_GT(sink.epochs.load(), 0u);
}

TEST(EpochParallel, ParallelNodeEncodeFoldIsByteIdentical) {
  // Capture one online trace, then encode its nodes on worker threads and
  // splice the buffers: the fold must reproduce the serial wire image
  // byte for byte (minus the length prefix, which the splice re-adds).
  const workloads::WorkloadInfo* info = workloads::find_workload("sweep3d");
  ASSERT_NE(info, nullptr);
  sim::Engine engine({.nprocs = 8});
  trace::CallSiteRegistry stacks(8);
  core::ChameleonTool tool(8, &stacks, {});
  engine.set_tool(&tool);
  workloads::WorkloadParams params{.cls = 'A', .timesteps = 4};
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  const std::vector<trace::TraceNode>& nodes = tool.online_trace();
  ASSERT_FALSE(nodes.empty());

  const std::vector<std::uint8_t> serial = trace::encode_trace(nodes);

  std::vector<std::vector<std::uint8_t>> parts(nodes.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back([&parts, &nodes, &next] {
      for (std::size_t i = next.fetch_add(1); i < nodes.size();
           i = next.fetch_add(1)) {
        trace::ByteWriter w;
        trace::encode_node(w, nodes[i]);
        parts[i] = w.take();
      }
    });
  for (std::thread& th : pool) th.join();

  trace::ByteWriter spliced;
  spliced.u32(static_cast<std::uint32_t>(nodes.size()));
  std::vector<std::uint8_t> folded = spliced.take();
  for (const auto& part : parts)
    folded.insert(folded.end(), part.begin(), part.end());
  EXPECT_EQ(folded, serial);
}

}  // namespace
}  // namespace cham
