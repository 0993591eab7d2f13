// End-to-end ChamRace tests: the analyzer driving real engine runs.
//
// The racefix fixture seeds exactly two conflicts (shared_counter,
// config) next to two correctly synchronized controls (token, turn); the
// analyzer must report precisely that split. Stock workloads must come out
// clean, and the determinism audit must see identical per-epoch digests
// across shuffled scheduler seeds.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/race/analyzer.hpp"
#include "analysis/race/annotate.hpp"
#include "analysis/race/determinism.hpp"
#include "analysis/verifier.hpp"
#include "core/chameleon.hpp"
#include "sim/engine.hpp"
#include "sim/tool.hpp"
#include "trace/callsite.hpp"
#include "workloads/workload.hpp"

namespace cham::analysis::race {
namespace {

/// Installs the analyzer as the global annotation sink for one scope.
class SinkScope {
 public:
  explicit SinkScope(cham::race::Sink* sink) { cham::race::set_sink(sink); }
  ~SinkScope() { cham::race::set_sink(nullptr); }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;
};

std::vector<RaceFinding> analyze(const std::string& workload, int procs,
                                 int steps) {
  const workloads::WorkloadInfo* info = workloads::find_workload(workload);
  EXPECT_NE(info, nullptr) << workload;
  RaceAnalyzer analyzer(procs);
  SinkScope scope(&analyzer);
  sim::Engine engine({.nprocs = procs});
  trace::CallSiteRegistry stacks(procs);
  core::ChameleonTool tool(procs, &stacks, {});
  engine.set_tool(&tool);
  workloads::WorkloadParams params{.cls = 'A', .timesteps = steps};
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
  EXPECT_GT(analyzer.accesses(), 0u);
  EXPECT_GT(analyzer.sync_ops(), 0u);
  return analyzer.findings();
}

bool has_finding(const std::vector<RaceFinding>& findings,
                 std::string_view location, RaceFinding::Kind kind) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const RaceFinding& f) {
                       return f.location == location && f.kind == kind;
                     });
}

bool touches_location(const std::vector<RaceFinding>& findings,
                      std::string_view location) {
  return std::any_of(
      findings.begin(), findings.end(),
      [&](const RaceFinding& f) { return f.location == location; });
}

TEST(RaceSim, RacefixReportsExactlyTheSeededConflicts) {
  const auto findings = analyze("racefix", 8, 4);
  ASSERT_FALSE(findings.empty());

  // The two seeded conflicts must be found...
  EXPECT_TRUE(has_finding(findings, "racefix.shared_counter",
                          RaceFinding::Kind::kWriteWrite));
  EXPECT_TRUE(
      has_finding(findings, "racefix.config", RaceFinding::Kind::kWriteRead) ||
      has_finding(findings, "racefix.config", RaceFinding::Kind::kReadWrite));

  // ...and the synchronized controls must stay quiet.
  EXPECT_FALSE(touches_location(findings, "racefix.token"));
  EXPECT_FALSE(touches_location(findings, "racefix.turn"));

  // Nothing in the runtime itself may be flagged alongside the fixture.
  for (const RaceFinding& f : findings)
    EXPECT_EQ(f.location.rfind("racefix.", 0), 0u) << f.to_string();
}

TEST(RaceSim, StockLuIsClean) {
  const auto findings = analyze("lu", 8, 4);
  for (const RaceFinding& f : findings) ADD_FAILURE() << f.to_string();
}

TEST(RaceSim, StockSweep3dIsClean) {
  const auto findings = analyze("sweep3d", 8, 4);
  for (const RaceFinding& f : findings) ADD_FAILURE() << f.to_string();
}

std::vector<std::uint64_t> digests_for_seed(const std::string& workload,
                                            int procs, int steps,
                                            std::uint64_t seed) {
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

TEST(RaceSim, DeterminismAuditPassesAcrossTenShuffledSeeds) {
  std::vector<std::uint64_t> seeds{0};  // FIFO baseline
  for (std::uint64_t s = 1; s <= 10; ++s) seeds.push_back(s);
  const DeterminismResult result = audit_determinism(
      [&](std::uint64_t seed) {
        return digests_for_seed("racefix", 8, 4, seed);
      },
      seeds);
  EXPECT_TRUE(result.deterministic)
      << "seed " << result.divergent_seed << " diverges at epoch "
      << result.first_divergent_epoch;
  EXPECT_GT(result.epochs_compared, 0u);
}

TEST(RaceSim, SeedZeroIsReproducible) {
  const auto a = digests_for_seed("lu", 8, 4, 0);
  const auto b = digests_for_seed("lu", 8, 4, 0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(RaceSim, AnalyzerComposesWithStackedTools) {
  // The gating configuration the sharded engine will run: correctness
  // verifier + Chameleon tracer stacked in one ToolChain, with the race
  // analyzer listening underneath. The verifier must stay clean, the racy
  // fixture must still be caught, and the clean controls must stay quiet —
  // stacking tools must not add or mask edges.
  const workloads::WorkloadInfo* info = workloads::find_workload("racefix");
  ASSERT_NE(info, nullptr);
  RaceAnalyzer analyzer(8);
  SinkScope scope(&analyzer);
  sim::Engine engine({.nprocs = 8});
  trace::CallSiteRegistry stacks(8);
  VerifierTool verifier(8, &stacks);
  core::ChameleonTool chameleon(8, &stacks, {});
  sim::ToolChain chain({&verifier, &chameleon});
  engine.set_tool(&chain);
  workloads::WorkloadParams params{.cls = 'A', .timesteps = 4};
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });

  EXPECT_TRUE(verifier.clean()) << verifier.sink().format_report();
  EXPECT_TRUE(has_finding(analyzer.findings(), "racefix.shared_counter",
                          RaceFinding::Kind::kWriteWrite));
  EXPECT_FALSE(touches_location(analyzer.findings(), "racefix.token"));
  EXPECT_FALSE(touches_location(analyzer.findings(), "racefix.turn"));
}

TEST(RaceSim, ShuffledSeedsStayCleanOfFalsePositives) {
  // Scheduling order must not manufacture conflicts in clean code: the
  // modelled sync edges have to hold under every schedule, not just FIFO.
  for (std::uint64_t seed : {1ull, 7ull}) {
    const workloads::WorkloadInfo* info = workloads::find_workload("lu");
    RaceAnalyzer analyzer(8);
    SinkScope scope(&analyzer);
    sim::Engine engine(sim::EngineOptions{.nprocs = 8, .sched_seed = seed});
    trace::CallSiteRegistry stacks(8);
    core::ChameleonTool tool(8, &stacks, {});
    engine.set_tool(&tool);
    workloads::WorkloadParams params{.cls = 'A', .timesteps = 4};
    engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });
    for (const RaceFinding& f : analyzer.findings())
      ADD_FAILURE() << "seed " << seed << ": " << f.to_string();
  }
}

}  // namespace
}  // namespace cham::analysis::race
