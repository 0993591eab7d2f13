// Workload skeleton tests: structure, determinism, cluster geometry.
#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include "core/chameleon.hpp"
#include "sim/engine.hpp"
#include "workloads/grid.hpp"

namespace cham::workloads {

// gtest prints a pointer parameter as its address, which moves on every run
// under ASLR and would put a different "# GetParam() = 0x..." into each
// listed test name. Print the workload name instead so the names are stable.
// Found by ADL, so it lives in WorkloadInfo's namespace, not the unnamed one.
static void PrintTo(const WorkloadInfo* info, std::ostream* os) {
  *os << info->name;
}

namespace {

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double vtime = 0.0;
  std::size_t callpaths = 0;
  std::size_t clusters = 0;
};

RunResult run_with_chameleon(const std::string& name, int p,
                             WorkloadParams params, std::size_t k) {
  const WorkloadInfo* info = find_workload(name);
  EXPECT_NE(info, nullptr);
  sim::Engine engine({.nprocs = p});
  trace::CallSiteRegistry stacks(p);
  core::ChameleonTool tool(p, &stacks, {.k = k});
  engine.set_tool(&tool);
  engine.run(
      [&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  RunResult result;
  result.events = tool.events_recorded_total();
  result.messages = engine.messages_sent();
  result.vtime = engine.max_vtime();
  result.callpaths = tool.clusters().num_callpaths();
  result.clusters = tool.clusters().total_clusters();
  return result;
}

class AllWorkloads : public ::testing::TestWithParam<const WorkloadInfo*> {};

INSTANTIATE_TEST_SUITE_P(
    Registry, AllWorkloads,
    ::testing::ValuesIn([] {
      std::vector<const WorkloadInfo*> infos;
      for (const auto& info : all_workloads()) infos.push_back(&info);
      return infos;
    }()),
    [](const auto& info) { return std::string(info.param->name); });

TEST_P(AllWorkloads, RunsUninstrumentedWithoutDeadlock) {
  const WorkloadInfo& info = *GetParam();
  sim::Engine engine({.nprocs = 8});
  trace::CallSiteRegistry stacks(8);
  WorkloadParams params{.cls = 'A', .timesteps = 4};
  EXPECT_NO_THROW(engine.run(
      [&](sim::Mpi& mpi) { info.run(mpi, stacks, params); }))
      << info.name;
  EXPECT_GT(engine.max_vtime(), 0.0);
}

TEST_P(AllWorkloads, DeterministicVirtualTime) {
  const WorkloadInfo& info = *GetParam();
  auto run_once = [&] {
    sim::Engine engine({.nprocs = 8});
    trace::CallSiteRegistry stacks(8);
    WorkloadParams params{.cls = 'A', .timesteps = 3};
    engine.run([&](sim::Mpi& mpi) { info.run(mpi, stacks, params); });
    return engine.max_vtime();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once()) << info.name;
}

TEST_P(AllWorkloads, TracesUnderChameleonWithDefaultK) {
  const WorkloadInfo& info = *GetParam();
  const RunResult r = run_with_chameleon(std::string(info.name), 8,
                                         {.cls = 'A', .timesteps = 6},
                                         info.default_k);
  EXPECT_GT(r.events, 0u) << info.name;
  EXPECT_GE(r.clusters, 1u) << info.name;
}

TEST(Workloads, RegistryFindsAllAndRejectsUnknown) {
  EXPECT_EQ(find_workload("nonexistent"), nullptr);
  for (const char* name : {"bt", "sp", "lu", "luw", "lu_mod", "pop", "sweep3d",
                           "emf", "cg", "racefix"}) {
    EXPECT_NE(find_workload(name), nullptr) << name;
  }
  EXPECT_EQ(all_workloads().size(), 10u);
}

TEST(Workloads, TableIClusterGeometry) {
  // The paper's Table I cluster counts arise from decomposition geometry:
  // chains -> 3, 2-D wavefronts -> <= 9, master/worker -> 2.
  const auto bt = run_with_chameleon("bt", 16, {.cls = 'A', .timesteps = 8}, 3);
  EXPECT_EQ(bt.clusters, 3u);

  const auto sp = run_with_chameleon("sp", 16, {.cls = 'A', .timesteps = 8}, 3);
  EXPECT_EQ(sp.clusters, 3u);

  const auto pop =
      run_with_chameleon("pop", 16, {.cls = 'A', .timesteps = 8}, 3);
  EXPECT_EQ(pop.clusters, 3u);

  const auto lu = run_with_chameleon("lu", 16, {.cls = 'A', .timesteps = 8}, 9);
  EXPECT_EQ(lu.clusters, 9u);  // 4 corners + 4 edges + interior on 4x4

  const auto s3d =
      run_with_chameleon("sweep3d", 16, {.cls = 'A', .timesteps = 4}, 9);
  EXPECT_EQ(s3d.clusters, 9u);

  const auto emf = run_with_chameleon("emf", 8, {.timesteps = 8}, 2);
  EXPECT_EQ(emf.callpaths, 2u);  // master + worker call paths
  EXPECT_EQ(emf.clusters, 2u);
}

TEST(Workloads, ClassScalesMessageVolume) {
  auto bytes_for = [](char cls) {
    const WorkloadInfo* info = find_workload("bt");
    sim::Engine engine({.nprocs = 4});
    trace::CallSiteRegistry stacks(4);
    WorkloadParams params{.cls = cls, .timesteps = 2};
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    return engine.bytes_sent();
  };
  EXPECT_LT(bytes_for('A'), bytes_for('B'));
  EXPECT_LT(bytes_for('B'), bytes_for('C'));
  EXPECT_LT(bytes_for('C'), bytes_for('D'));
}

TEST(Workloads, WeakScalingKeepsPerRankBytesFlat) {
  auto per_rank_bytes = [](int p) {
    const WorkloadInfo* info = find_workload("luw");
    sim::Engine engine({.nprocs = p});
    trace::CallSiteRegistry stacks(p);
    WorkloadParams params{.cls = 'D', .timesteps = 3, .weak = true};
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    return static_cast<double>(engine.bytes_sent()) / p;
  };
  const double at8 = per_rank_bytes(8);
  const double at32 = per_rank_bytes(32);
  EXPECT_NEAR(at32 / at8, 1.0, 0.35);  // flat up to boundary effects
}

TEST(Workloads, LuModifiedForcesReclusterings) {
  // Figure 10's mechanism: the injected barrier call site changes the
  // Call-Path every perturb_every steps, forcing flush + re-cluster cycles.
  const WorkloadInfo* info = find_workload("lu_mod");
  auto reclusterings = [&](int perturb) {
    const int p = 8;
    sim::Engine engine({.nprocs = p});
    trace::CallSiteRegistry stacks(p);
    core::ChameleonTool tool(p, &stacks, {.k = 9});
    engine.set_tool(&tool);
    WorkloadParams params{.cls = 'A', .timesteps = 60,
                          .perturb_every = perturb};
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    return tool.reclusterings();
  };
  const auto none = reclusterings(0);
  const auto sparse = reclusterings(30);
  const auto dense = reclusterings(10);
  EXPECT_EQ(none, 1u);
  EXPECT_GT(dense, sparse);
  EXPECT_GE(sparse, 2u);
}

TEST(Workloads, PopInnerLoopVariesButClustersStayAtThree) {
  // The paper's POP observation: irregular convergence depth does not
  // perturb clustering (Call-Paths are over distinct signatures).
  const auto r1 =
      run_with_chameleon("pop", 16, {.cls = 'A', .timesteps = 10, .seed = 1}, 3);
  const auto r2 =
      run_with_chameleon("pop", 16, {.cls = 'A', .timesteps = 10, .seed = 9}, 3);
  EXPECT_EQ(r1.clusters, 3u);
  EXPECT_EQ(r2.clusters, 3u);
  EXPECT_NE(r1.messages, r2.messages);  // the seeds did change the depth
}

TEST(Workloads, EmfIterationsMatchTableII) {
  // iterations = 36000 / (P-1): 288@126 ... 36@1001.
  const WorkloadInfo* info = find_workload("emf");
  ASSERT_NE(info, nullptr);
  for (const auto& [p, iters] :
       std::vector<std::pair<int, int>>{{126, 288}, {251, 144}, {501, 72},
                                        {1001, 36}}) {
    EXPECT_EQ(36000 / (p - 1), iters);
  }
}

TEST(Grid2DTest, FactorsBalanced) {
  EXPECT_EQ(Grid2D::factor(16).qx, 4);
  EXPECT_EQ(Grid2D::factor(16).qy, 4);
  EXPECT_EQ(Grid2D::factor(1024).qx, 32);
  EXPECT_EQ(Grid2D::factor(12).qx, 3);
  EXPECT_EQ(Grid2D::factor(12).qy, 4);
  EXPECT_EQ(Grid2D::factor(7).qx, 1);
}

TEST(Grid2DTest, NeighborsRespectBoundaries) {
  const Grid2D grid = Grid2D::factor(16);  // 4x4
  EXPECT_EQ(grid.neighbor(0, -1, 0), sim::kAnySource);
  EXPECT_EQ(grid.neighbor(0, +1, 0), 1);
  EXPECT_EQ(grid.neighbor(0, 0, +1), 4);
  EXPECT_EQ(grid.neighbor(15, +1, 0), sim::kAnySource);
  EXPECT_EQ(grid.neighbor(15, 0, +1), sim::kAnySource);
  EXPECT_EQ(grid.neighbor(5, -1, 0), 4);
}

}  // namespace
}  // namespace cham::workloads
