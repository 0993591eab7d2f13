#include "core/acurdion.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "support/hash.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

namespace cham::core {
namespace {

using trace::CallScope;
using trace::CallSiteRegistry;
using trace::site_id;

void kernel(sim::Mpi& mpi, CallSiteRegistry& stacks, int steps) {
  const int p = mpi.size();
  for (int step = 0; step < steps; ++step) {
    CallScope scope(stacks.stack(mpi.rank()), site_id("kernel"));
    const sim::Rank next = (mpi.rank() + 1) % p;
    const sim::Rank prev = (mpi.rank() + p - 1) % p;
    mpi.isend(next, 64, 0);
    mpi.recv(prev, 64, 0);
    mpi.marker();  // ACURDION ignores markers; traced as plain barriers
  }
}

TEST(Acurdion, ClustersOnceAtFinalize) {
  const int p = 16;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  AcurdionTool tool(p, &stacks, {.k = 3});
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { kernel(mpi, stacks, 10); });
  EXPECT_EQ(tool.effective_k(), 3u);
  EXPECT_EQ(tool.clusters().total_members(), 16u);
  EXPECT_FALSE(tool.global_trace().empty());
}

TEST(Acurdion, AllRanksPayFullTraceStorageUntilFinalize) {
  // The contrast with Chameleon's Table IV: under ACURDION every rank keeps
  // its full trace in memory because clustering happens only at the end.
  const int p = 8;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);

  class ProbeTool : public AcurdionTool {
   public:
    using AcurdionTool::AcurdionTool;
    void handle_finalize(sim::Rank rank, sim::Pmpi& pmpi) override {
      bytes_at_finalize.push_back(rank_trace_bytes(rank));
      AcurdionTool::handle_finalize(rank, pmpi);
    }
    std::vector<std::size_t> bytes_at_finalize;
  };
  ProbeTool tool(p, &stacks, {.k = 2});
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { kernel(mpi, stacks, 20); });
  ASSERT_EQ(tool.bytes_at_finalize.size(), static_cast<std::size_t>(p));
  for (std::size_t bytes : tool.bytes_at_finalize) EXPECT_GT(bytes, 0u);
}

TEST(Acurdion, GlobalTraceCoversEveryRank) {
  const int p = 8;
  const int steps = 5;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  AcurdionTool tool(p, &stacks, {.k = 3});
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { kernel(mpi, stacks, steps); });

  std::uint64_t covered = 0;
  std::function<void(const trace::TraceNode&, std::uint64_t)> walk =
      [&](const trace::TraceNode& node, std::uint64_t mult) {
        if (node.is_loop()) {
          for (const auto& child : node.body) walk(child, mult * node.iters);
        } else {
          covered += mult * node.event.ranks.count();
        }
      };
  for (const auto& node : tool.global_trace()) walk(node, 1);
  // isend + recv + marker barrier per step per rank.
  EXPECT_EQ(covered, static_cast<std::uint64_t>(p * steps * 3));
}

TEST(Acurdion, ClusteringTimeIsSinglePass) {
  // ACURDION's clustering cost must not scale with the number of markers
  // (it runs once): 10x more markers, similar clustering seconds.
  auto run_seconds = [](int steps) {
    const int p = 8;
    sim::Engine engine({.nprocs = p});
    CallSiteRegistry stacks(p);
    AcurdionTool tool(p, &stacks, {.k = 2});
    engine.set_tool(&tool);
    engine.run([&](sim::Mpi& mpi) { kernel(mpi, stacks, steps); });
    return tool.clustering_seconds();
  };
  // Not a strict timing assertion (noisy on shared CPU): just sanity-check
  // both complete and report nonzero cost.
  EXPECT_GT(run_seconds(5), 0.0);
  EXPECT_GT(run_seconds(50), 0.0);
}

// ---------------------------------------------------------------------------
// Frozen outputs: ACURDION's global trace structure, cluster table and merge
// count for four paper workloads (class A, 12 steps, 64 ranks, default K),
// recorded before its finalize merge moved onto the lead merge it shares
// with Chameleon (ScalaTraceTool::merge_leads). Under k-random leads the
// merge root is not rank 0, so lu and bt also pin the root's handoff to
// rank 0. Repeated runs gave the same values; full wire images are not
// compared (delta-time histograms carry host-measured seconds).
// ---------------------------------------------------------------------------

struct AcurdionFrozen {
  const char* workload;
  std::uint64_t structure_digest;
  std::uint64_t table_digest;
  std::uint64_t merge_operations;
  cluster::SelectPolicy policy = cluster::SelectPolicy::kFarthest;
};

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return support::fnv1a64(bytes.data(), bytes.size());
}

void expect_frozen(const AcurdionFrozen& want) {
  const workloads::WorkloadInfo* info = workloads::find_workload(want.workload);
  ASSERT_NE(info, nullptr) << want.workload;
  {
    const int p = 64;
    sim::Engine engine({.nprocs = p});
    CallSiteRegistry stacks(p);
    AcurdionTool tool(p, &stacks,
                      {.k = info->default_k, .policy = want.policy, .seed = 1234});
    engine.set_tool(&tool);
    workloads::WorkloadParams params;
    params.cls = 'A';
    params.timesteps = 12;
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    EXPECT_EQ(digest(trace::encode_trace_structure(tool.global_trace())),
              want.structure_digest)
        << want.workload << ": global trace structure changed";
    EXPECT_EQ(digest(tool.clusters().encode()), want.table_digest)
        << want.workload << ": cluster table changed";
    EXPECT_EQ(tool.merge_operations(), want.merge_operations) << want.workload;
    if (want.policy == cluster::SelectPolicy::kRandom) {
      EXPECT_NE(tool.clusters().leads().front(), 0) << "no handoff to rank 0";
    }
  }
  // The tool's ranklists died with it; the next run starts from a clean
  // intern table.
  trace::ranklist_intern_reset();
}

TEST(Acurdion, FrozenLu) {
  expect_frozen({"lu", 0x6bb706d59aa9f945ull, 0xa4c90ab0f318a820ull, 8});
}

TEST(Acurdion, FrozenBt) {
  expect_frozen({"bt", 0x801b8d981a6a66d8ull, 0xa40aeca7cc2f930aull, 2});
}

TEST(Acurdion, FrozenSweep3d) {
  expect_frozen({"sweep3d", 0x7c1c27f0d210d0a7ull, 0xdfa7e33641751196ull, 8});
}

TEST(Acurdion, FrozenPop) {
  expect_frozen({"pop", 0xa3d9fd6439298a1dull, 0xf0826f51a160f4e7ull, 2});
}

TEST(Acurdion, FrozenLuRandomLeadsHandOff) {
  expect_frozen({"lu", 0x4e0963a66233e0a7ull, 0x6744117fbac7a016ull, 8,
                 cluster::SelectPolicy::kRandom});
}

TEST(Acurdion, FrozenBtRandomLeadsHandOff) {
  expect_frozen({"bt", 0x971250ffa7883cf2ull, 0xebb5f4364b810d55ull, 2,
                 cluster::SelectPolicy::kRandom});
}

}  // namespace
}  // namespace cham::core
