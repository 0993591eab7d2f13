// Shared state on the tracer's per-rank paths: each rank reads its
// singleton ranklist from its own trace state (no intern-table lookup per
// event), and each broadcast cluster table is decoded once per tool and
// shared, immutable, by every rank that received the same bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/acurdion.hpp"
#include "core/chameleon.hpp"
#include "core/protocol.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "trace/ranklist.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

namespace cham::core {
namespace {

/// lu, class A, weak scaling (the workload the scale suite freezes); with
/// `perturb_every` set, lu_mod's phase changes.
void run_lu(sim::Engine& engine, trace::CallSiteRegistry& stacks, int steps,
            int perturb_every = 0) {
  const workloads::WorkloadInfo* info =
      workloads::find_workload(perturb_every == 0 ? "lu" : "lu_mod");
  ASSERT_NE(info, nullptr);
  workloads::WorkloadParams params;
  params.cls = 'A';
  params.timesteps = steps;
  params.perturb_every = perturb_every;
  params.weak = true;
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
}

/// Clusterings the run performed (marker and finalize), from its epoch
/// records.
std::size_t clusterings(const ChameleonTool& tool) {
  std::size_t n = 0;
  for (const obs::EpochRecord& epoch : tool.epochs())
    if (epoch.action == "cluster") ++n;
  return n;
}

/// A small table over `ranks` ranks split into two call paths.
cluster::ClusterSet table_of(int ranks, std::uint64_t salt) {
  cluster::ClusterSet set;
  for (sim::Rank r = 0; r < ranks; ++r) {
    const cluster::RankSignature sig{0x1000 + salt + (r % 2),
                                     static_cast<std::uint64_t>(r) * salt,
                                     static_cast<std::uint64_t>(r + 1)};
    set.absorb(cluster::ClusterSet::leaf(r, sig));
  }
  set.shrink(4, cluster::SelectPolicy::kFarthest);
  return set;
}

// --- the one-slot cache ---------------------------------------------------

TEST(SharedTableCache, SameBytesReturnTheSameObject) {
  const std::vector<std::uint8_t> image = table_of(16, 3).encode();
  SharedTableCache cache;
  const auto first = cache.get(image);
  const std::vector<std::uint8_t> copy = image;  // equal bytes, other buffer
  const auto second = cache.get(copy);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.decodes(), 1u);
}

TEST(SharedTableCache, OtherBytesDecodeOnceIntoANewObject) {
  const std::vector<std::uint8_t> a = table_of(16, 3).encode();
  const std::vector<std::uint8_t> b = table_of(16, 5).encode();
  ASSERT_NE(a, b);
  SharedTableCache cache;
  const auto table_a = cache.get(a);
  const auto table_b = cache.get(b);
  EXPECT_NE(table_a.get(), table_b.get());
  EXPECT_EQ(*table_a, cluster::ClusterSet::decode(a));
  EXPECT_EQ(*table_b, cluster::ClusterSet::decode(b));
  EXPECT_EQ(cache.get(b).get(), table_b.get());
  EXPECT_EQ(cache.decodes(), 2u);
  // The replaced table lives on for whoever still holds it.
  EXPECT_EQ(*table_a, cluster::ClusterSet::decode(a));
}

TEST(SharedTableCache, MalformedBytesThrowTheDecoderError) {
  const std::vector<std::uint8_t> good = table_of(8, 3).encode();
  const std::vector<std::uint8_t> bad(good.begin(), good.begin() + 9);
  std::string direct;
  try {
    (void)cluster::ClusterSet::decode(bad);
  } catch (const trace::DecodeError& e) {
    direct = e.what();
  }
  ASSERT_FALSE(direct.empty());

  SharedTableCache cache;
  const auto cached = cache.get(good);
  try {
    (void)cache.get(bad);
    ADD_FAILURE() << "malformed bytes decoded";
  } catch (const trace::DecodeError& e) {
    EXPECT_EQ(std::string(e.what()), direct);
  }
  // The slot still holds the last good table.
  EXPECT_EQ(cache.get(good).get(), cached.get());
  EXPECT_EQ(cache.decodes(), 1u);
}

TEST(SharedTableCache, ConcurrentGetsAgreeWithDirectDecodes) {
  // Four threads ask for two alternating images: every answer equals a
  // direct decode of the bytes asked for, whoever decoded it.
  const std::vector<std::vector<std::uint8_t>> images{
      table_of(32, 3).encode(), table_of(32, 7).encode()};
  const std::vector<cluster::ClusterSet> direct{
      cluster::ClusterSet::decode(images[0]),
      cluster::ClusterSet::decode(images[1])};
  SharedTableCache cache;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::size_t which = static_cast<std::size_t>((i + t) % 2);
        const auto table = cache.get(images[which]);
        if (!(*table == direct[which])) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- the protocol shares one table per broadcast --------------------------

TEST(SharedTableCache, EveryRankSharesTheFinalTable) {
  constexpr int kP = 64;
  sim::Engine engine({.nprocs = kP, .threads = 2});
  trace::CallSiteRegistry stacks(kP);
  ChameleonTool tool(kP, &stacks, {.k = 9, .record_epochs = true});
  engine.set_tool(&tool);
  run_lu(engine, stacks, 8);
  ASSERT_GT(tool.clusters().total_clusters(), 0u);
  for (sim::Rank r = 0; r < kP; ++r)
    EXPECT_EQ(&tool.rank_clusters(r), &tool.clusters()) << "rank " << r;
}

TEST(SharedTableCache, ChameleonDecodesOncePerBroadcastImage) {
  // lu clusters once: 64 ranks receive the table, the tool decodes it once.
  constexpr int kP = 64;
  {
    sim::Engine engine({.nprocs = kP});
    trace::CallSiteRegistry stacks(kP);
    ChameleonTool tool(kP, &stacks, {.k = 9, .record_epochs = true});
    engine.set_tool(&tool);
    run_lu(engine, stacks, 8);
    ASSERT_EQ(clusterings(tool), 1u);
    EXPECT_EQ(tool.table_cache().decodes(), 1u);
  }
  // lu_mod's phase changes re-cluster several times. A clustering whose
  // table differs from the last broadcast costs one decode, one that
  // repeats it costs none: at least one decode per change of lead
  // assignment, at most one per clustering.
  sim::Engine engine({.nprocs = kP});
  trace::CallSiteRegistry stacks(kP);
  ChameleonTool tool(kP, &stacks, {.k = 9, .record_epochs = true});
  engine.set_tool(&tool);
  run_lu(engine, stacks, 12, /*perturb_every=*/3);
  std::size_t changes = 0;
  const obs::EpochRecord* last = nullptr;
  for (const obs::EpochRecord& epoch : tool.epochs()) {
    if (epoch.action != "cluster") continue;
    if (last == nullptr || epoch.lead_of != last->lead_of ||
        epoch.callpaths != last->callpaths)
      ++changes;
    last = &epoch;
  }
  ASSERT_GT(clusterings(tool), 1u);
  EXPECT_GE(tool.table_cache().decodes(), changes);
  EXPECT_LE(tool.table_cache().decodes(), clusterings(tool));
}

TEST(SharedTableCache, AcurdionDecodesItsOneTableOnce) {
  constexpr int kP = 64;
  sim::Engine engine({.nprocs = kP});
  trace::CallSiteRegistry stacks(kP);
  AcurdionTool tool(kP, &stacks, {.k = 9});
  engine.set_tool(&tool);
  run_lu(engine, stacks, 4);
  EXPECT_GT(tool.clusters().total_clusters(), 0u);
  EXPECT_EQ(tool.table_cache().decodes(), 1u);
}

// --- each rank owns its singleton ranklist -------------------------------

TEST(TracerSingletons, ScalaTraceEventsLookUpNoSingleton) {
  constexpr int kP = 64;
  sim::Engine engine({.nprocs = kP});
  trace::CallSiteRegistry stacks(kP);
  trace::ScalaTraceTool tool(kP, &stacks);
  engine.set_tool(&tool);
  const trace::RankListInternStats before = trace::ranklist_intern_stats();
  run_lu(engine, stacks, 4);
  const trace::RankListInternStats after = trace::ranklist_intern_stats();
  ASSERT_GT(tool.events_recorded_total(), 0u);
  EXPECT_EQ(after.singleton_hits, before.singleton_hits);
}

TEST(TracerSingletons, ChameleonLooksUpOneSingletonPerRankPerClustering) {
  // The only singleton lookups left are ClusterSet::leaf's, once per rank
  // per clustering.
  constexpr int kP = 64;
  sim::Engine engine({.nprocs = kP});
  trace::CallSiteRegistry stacks(kP);
  ChameleonTool tool(kP, &stacks, {.k = 9, .record_epochs = true});
  engine.set_tool(&tool);
  const trace::RankListInternStats before = trace::ranklist_intern_stats();
  run_lu(engine, stacks, 8);
  const trace::RankListInternStats after = trace::ranklist_intern_stats();
  ASSERT_GE(clusterings(tool), 1u);
  EXPECT_EQ(after.singleton_hits - before.singleton_hits,
            kP * clusterings(tool));
}

}  // namespace
}  // namespace cham::core
