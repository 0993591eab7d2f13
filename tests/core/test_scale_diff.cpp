// ChamScale frozen-output suite: the full protocol must keep producing the
// exact cluster tables, structural trace projections and invariant
// counters recorded below, across workloads, thread counts, and the
// failover path.
//
// The constants were recorded when the tree still carried the seed code
// paths (dense ranklists, LCS-only merges, deep-compare folds) next to the
// optimized ones; for every run below both produced exactly these values,
// so the tests still read "ON vs OFF": the optimized paths against the
// frozen output of the seed semantics.
//
// Full wire images are deliberately NOT compared: delta-time histograms
// embed the host-CPU seconds a ToolSection charges to the virtual clock,
// which legitimately differ between two runs of the same schedule. Everything schedule- and host-invariant is
// pinned exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/mpi.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "trace/merge.hpp"
#include "trace/perf.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

namespace cham::core {
namespace {

/// Everything a protocol run exposes that the scale optimizations must not
/// change: FNV-64 digests of the broadcast cluster table's wire bytes and
/// of the online trace's structural projection, and the protocol's
/// invariant counters.
struct ProtocolResult {
  std::uint64_t table_digest = 0;
  std::uint64_t structure_digest = 0;
  std::uint64_t markers = 0;
  std::uint64_t folds = 0;
  std::uint64_t merge_ops = 0;
  std::size_t total_clusters = 0;
  std::size_t total_members = 0;
};

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return support::fnv1a64(bytes.data(), bytes.size());
}

void expect_frozen(const ProtocolResult& got, const ProtocolResult& want,
                   const std::string& what) {
  EXPECT_EQ(got.table_digest, want.table_digest)
      << what << ": cluster table wire bytes changed";
  EXPECT_EQ(got.structure_digest, want.structure_digest)
      << what << ": online trace structure changed";
  EXPECT_EQ(got.markers, want.markers) << what;
  EXPECT_EQ(got.folds, want.folds) << what << ": fold decisions changed";
  EXPECT_EQ(got.merge_ops, want.merge_ops) << what;
  EXPECT_EQ(got.total_clusters, want.total_clusters) << what;
  EXPECT_EQ(got.total_members, want.total_members) << what;
}

ProtocolResult run_workload(
    const char* name, int procs, int steps, int threads = 1,
    int perturb_every = 0,
    cluster::SelectPolicy policy = cluster::SelectPolicy::kFarthest) {
  const workloads::WorkloadInfo* info = workloads::find_workload(name);
  EXPECT_NE(info, nullptr) << name;
  ProtocolResult result;
  {
    sim::Engine engine({.nprocs = procs, .threads = threads});
    trace::CallSiteRegistry stacks(procs);
    ChameleonTool tool(procs, &stacks,
                       {.k = info->default_k, .policy = policy});
    engine.set_tool(&tool);
    workloads::WorkloadParams params;
    params.cls = 'A';
    params.timesteps = steps;
    params.perturb_every = perturb_every;
    params.weak = true;
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    result.table_digest = digest(tool.clusters().encode());
    result.structure_digest =
        digest(trace::encode_trace_structure(tool.online_trace()));
    result.markers = tool.marker_calls_processed();
    result.folds = tool.perf_counters().folds_performed;
    result.merge_ops = tool.merge_operations();
    result.total_clusters = tool.clusters().total_clusters();
    result.total_members = tool.clusters().total_members();
    if (policy == cluster::SelectPolicy::kRandom) {
      // The lead merge's root is not the home rank, so every interval is
      // handed off to it.
      EXPECT_NE(tool.clusters().leads().front(), 0) << name;
    }
  }
  // All ranklists died with the tool; drop the intern table so the next
  // run starts from a clean slate.
  trace::ranklist_intern_reset();
  return result;
}

// lu at 64 ranks, 8 steps: the reference for the 4-thread run below too.
constexpr ProtocolResult kLu64{0xd13fdfb224d1a139ull, 0x7c4b6a52dcc6d8c5ull,
                               8, 109, 16, 9, 64};

TEST(ScaleDiff, LuOnVsOff64) {
  expect_frozen(run_workload("lu", 64, 8), kLu64, "lu 64");
}

TEST(ScaleDiff, LuOnVsOff256) {
  expect_frozen(run_workload("lu", 256, 6),
                {0x9961b3a88353abaeull, 0xbeaaaae0217a1586ull, 6, 283, 16, 9,
                 256},
                "lu 256");
}

TEST(ScaleDiff, LuOnVsOff1024Sharded) {
  // The bench scale's smallest committed row, on the 4-thread engine.
  expect_frozen(run_workload("lu", 1024, 4, /*threads=*/4),
                {0x43f22dd13393b587ull, 0x590cdc8066b3bb5bull, 4, 1034, 16, 9,
                 1024},
                "lu 1024");
}

TEST(ScaleDiff, LuOnVsOff4096Sharded) {
  expect_frozen(run_workload("lu", 4096, 3, /*threads=*/4),
                {0x459148d65afce09bull, 0x9b645b5c8f97b0c8ull, 3, 4096, 16, 9,
                 4096},
                "lu 4096");
}

TEST(ScaleDiff, Sweep3dOnVsOff64) {
  expect_frozen(run_workload("sweep3d", 64, 6),
                {0xd74e3eb01e4ea15aull, 0x435baf4c306a861dull, 6, 747, 16, 9,
                 64},
                "sweep3d 64");
}

TEST(ScaleDiff, BtOnVsOff64) {
  expect_frozen(run_workload("bt", 64, 8),
                {0xa61c01f951ef9573ull, 0x593f24b7a5478a48ull, 8, 79, 4, 3,
                 64},
                "bt 64");
}

TEST(ScaleDiff, PopSeededOnVsOff64) {
  // POP's convergence loop is data-dependent (seeded), so the trace shape
  // is irregular — the worst case for run factorization and dedup.
  expect_frozen(run_workload("pop", 64, 8),
                {0x5e119d15f8b473e3ull, 0x32c994322199f9aeull, 8, 839, 4, 3,
                 64},
                "pop 64");
}

TEST(ScaleDiff, PerturbedLuOnVsOff64) {
  // lu_mod forces Call-Path changes (flush + recluster every 3rd step):
  // covers the L-state flush path and repeated reclusterings.
  expect_frozen(run_workload("lu_mod", 64, 9, /*threads=*/1,
                             /*perturb_every=*/3),
                {0xde07ba2f5affca14ull, 0xb69e8ba993f69b40ull, 9, 194, 56, 9,
                 64},
                "lu_mod 64");
}

TEST(ScaleDiff, LuRandomLeadsHandOff64) {
  // k-random leads: the merge root hands every interval to rank 0.
  expect_frozen(run_workload("lu", 64, 8, /*threads=*/1, /*perturb_every=*/0,
                             cluster::SelectPolicy::kRandom),
                {0xfbced1943ce5cb24ull, 0x3f9ab95ec0892cf9ull, 8, 109, 16, 9,
                 64},
                "lu 64, k-random");
}

TEST(ScaleDiff, BtRandomLeadsHandOff64) {
  expect_frozen(run_workload("bt", 64, 8, /*threads=*/1, /*perturb_every=*/0,
                             cluster::SelectPolicy::kRandom),
                {0xe259a55d0322092dull, 0x18ca4db461b13216ull, 8, 79, 4, 3,
                 64},
                "bt 64, k-random");
}

TEST(ScaleDiff, ShardedEngineMatchesSingleThreadWithScaleOn) {
  // The optimized paths must preserve the engine's cross-thread
  // determinism contract: 4 shards reproduce the 1-shard output.
  expect_frozen(run_workload("lu", 64, 8, /*threads=*/4), kLu64,
                "lu 64, 4 threads");
}

// ---------------------------------------------------------------------------
// Failover: the O(clusters) survivor scan must promote the same leads and
// emit the same gap structure as the seed's O(members) loop.
// ---------------------------------------------------------------------------

void steady_phase(sim::Mpi& mpi, trace::CallSiteRegistry& stacks, int steps) {
  const int p = mpi.size();
  for (int step = 0; step < steps; ++step) {
    trace::CallScope scope(stacks.stack(mpi.rank()),
                           trace::site_id("phase.steady"));
    const sim::Rank next = (mpi.rank() + 1) % p;
    const sim::Rank prev = (mpi.rank() + p - 1) % p;
    mpi.compute(0.001);
    mpi.isend(next, 128, 1);
    mpi.recv(prev, 128, 1);
    mpi.allreduce(8);
    mpi.marker();
  }
}

TEST(ScaleDiff, LeadFailoverOnVsOff) {
  ProtocolResult result;
  {
    sim::FaultInjector injector(
        sim::FaultPlan::parse("crash rank=5 marker=4", 0));
    sim::Engine engine({.nprocs = 16});
    trace::CallSiteRegistry stacks(16);
    ChameleonTool tool(16, &stacks, {.k = 3});
    engine.set_fault_injector(&injector);
    engine.set_site_probe([&stacks](sim::Rank r) -> std::uint64_t {
      const auto& frames = stacks.stack(r).frames();
      return frames.empty() ? 0 : frames.back();
    });
    engine.set_tool(&tool);
    engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks, 10); });
    result.table_digest = digest(tool.clusters().encode());
    result.structure_digest =
        digest(trace::encode_trace_structure(tool.online_trace()));
    result.markers = tool.marker_calls_processed();
    result.total_clusters = tool.clusters().total_clusters();
    result.total_members = tool.clusters().total_members();
  }
  trace::ranklist_intern_reset();
  // The crashed rank drops out of the surviving cluster membership; folds
  // and merge counts are not compared on this path.
  expect_frozen(result,
                {0xcdac5af98d606444ull, 0xb31778ae9e76c00dull, 10, 0, 0, 3,
                 16},
                "lead failover");
}

// ---------------------------------------------------------------------------
// The dedup zip fast path in isolation: it must fire on structurally
// identical sequences and produce bytes identical to the LCS merge it
// short-circuits.
// ---------------------------------------------------------------------------

trace::EventRecord leaf_event(std::uint64_t stack, sim::Rank rank,
                              sim::Op op = sim::Op::kSend,
                              std::int32_t off = 1) {
  trace::EventRecord record;
  record.op = op;
  record.stack_sig = stack;
  if (op == sim::Op::kSend)
    record.dest = trace::Endpoint{trace::Endpoint::Kind::kRelative, off};
  record.bytes = 8;
  record.ranks = trace::RankList::single(rank);
  return record;
}

std::vector<trace::TraceNode> spmd_trace(sim::Rank rank) {
  return {trace::TraceNode::leaf(leaf_event(1, rank)),
          trace::TraceNode::leaf(leaf_event(2, rank, sim::Op::kRecv)),
          trace::TraceNode::loop(50,
                                 {trace::TraceNode::leaf(leaf_event(3, rank)),
                                  trace::TraceNode::leaf(leaf_event(
                                      4, rank, sim::Op::kBarrier))}),
          trace::TraceNode::leaf(leaf_event(5, rank, sim::Op::kAllreduce))};
}

TEST(ScaleZip, FiresOnIdenticalShapesAndMatchesLcsBytes) {
  const std::vector<std::uint8_t> lcs_bytes =
      trace::encode_trace(trace::lcs_merge(spmd_trace(0), spmd_trace(9)));
  trace::PerfCounters pc;
  const auto merged = trace::inter_merge(spmd_trace(0), spmd_trace(9), &pc);
  // The weak-scaled SPMD shape is exactly what the zip recognizes.
  EXPECT_GE(pc.merge_zip_hits, 1u);
  EXPECT_EQ(trace::encode_trace(merged), lcs_bytes);
  trace::ranklist_intern_reset();
}

TEST(ScaleZip, DoesNotFireAcrossStructuralDifferences) {
  auto a = spmd_trace(0);
  auto b = spmd_trace(9);
  b[3] = trace::TraceNode::leaf(leaf_event(99, 9));  // break the diagonal
  trace::PerfCounters pc;
  const auto merged = trace::inter_merge(std::move(a), std::move(b), &pc);
  EXPECT_EQ(pc.merge_zip_hits, 0u);
  EXPECT_EQ(merged.size(), 5u);  // splice, not zip
  trace::ranklist_intern_reset();
}

TEST(ScaleZip, RandomStreamsMatchLcsBytes) {
  // Random leaf/loop sequences over a small call-site alphabet: whenever
  // the zip fires it must be invisible in the output bytes, and when it
  // cannot fire inter_merge must be exactly the LCS merge.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    support::Rng rng(seed * 131);
    const auto random_trace = [&rng](sim::Rank rank) {
      std::vector<trace::TraceNode> nodes;
      const int len = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < len; ++i) {
        const auto stack = 1 + rng.next_below(5);
        if (rng.next_below(4) == 0) {
          nodes.push_back(trace::TraceNode::loop(
              2 + rng.next_below(20),
              {trace::TraceNode::leaf(leaf_event(stack, rank))}));
        } else {
          nodes.push_back(trace::TraceNode::leaf(leaf_event(
              stack, rank, rng.next_below(2) == 0 ? sim::Op::kSend
                                                  : sim::Op::kRecv)));
        }
      }
      return nodes;
    };
    // Same generator state replayed per side keeps ~half the pairs
    // structurally identical (zip eligible), the rest divergent.
    const std::uint64_t shape_seed = rng.next_below(3);
    support::Rng save = rng;
    auto build_pair = [&](sim::Rank ra, sim::Rank rb) {
      rng = save;
      auto a = random_trace(ra);
      if (shape_seed == 0) rng = save;  // replay: identical shape for b
      auto b = random_trace(rb);
      return std::make_pair(std::move(a), std::move(b));
    };
    std::vector<std::uint8_t> lcs_bytes;
    {
      auto [a, b] = build_pair(0, 7);
      lcs_bytes = trace::encode_trace(trace::lcs_merge(a, b));
    }
    {
      auto [a, b] = build_pair(0, 7);
      const auto merged_bytes =
          trace::encode_trace(trace::inter_merge(a, b));
      ASSERT_EQ(merged_bytes, lcs_bytes) << "seed " << seed;
    }
    trace::ranklist_intern_reset();
  }
}

}  // namespace
}  // namespace cham::core
