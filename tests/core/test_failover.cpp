// Fault-tolerant Chameleon protocol: lead failover, gap nodes, degraded
// clustering and resilient merge. A crashed rank must never hang the
// survivors — the next processed marker detects the dead lead, promotes the
// lowest-rank surviving member, records an explicit gap node for the lost
// interval, and the finalize-time merge still yields a lint-clean trace
// that round-trips the serializer.
#include "core/chameleon.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/mpi.hpp"
#include "trace/serialize.hpp"

namespace cham::core {
namespace {

using trace::CallScope;
using trace::CallSiteRegistry;
using trace::site_id;

/// The steady ring phase from test_chameleon.cpp: neighbour exchange +
/// allreduce per timestep, one marker per timestep.
void steady_phase(sim::Mpi& mpi, CallSiteRegistry& stacks, int steps) {
  const int p = mpi.size();
  for (int step = 0; step < steps; ++step) {
    CallScope scope(stacks.stack(mpi.rank()), site_id("phase.steady"));
    const sim::Rank next = (mpi.rank() + 1) % p;
    const sim::Rank prev = (mpi.rank() + p - 1) % p;
    mpi.compute(0.001);
    mpi.isend(next, 128, 1);
    mpi.recv(prev, 128, 1);
    mpi.allreduce(8);
    mpi.marker();
  }
}

struct FaultyHarness {
  FaultyHarness(int p, const std::string& plan, std::uint64_t seed = 0,
                ChameleonConfig cfg = {.k = 3})
      : injector(sim::FaultPlan::parse(plan, seed)),
        engine({.nprocs = p}),
        stacks(p),
        tool(p, &stacks, cfg) {
    engine.set_fault_injector(&injector);
    engine.set_site_probe([this](sim::Rank r) -> std::uint64_t {
      const auto& frames = stacks.stack(r).frames();
      return frames.empty() ? 0 : frames.back();
    });
    engine.set_tool(&tool);
  }
  sim::FaultInjector injector;
  sim::Engine engine;
  CallSiteRegistry stacks;
  ChameleonTool tool;
};

std::size_t count_gaps(const std::vector<trace::TraceNode>& nodes) {
  std::size_t gaps = 0;
  for (const auto& node : nodes) {
    if (node.is_loop()) {
      gaps += count_gaps(node.body);
    } else if (node.event.op == sim::Op::kGap) {
      ++gaps;
    }
  }
  return gaps;
}

const trace::EventRecord* find_gap(const std::vector<trace::TraceNode>& nodes) {
  for (const auto& node : nodes) {
    if (node.is_loop()) {
      if (const auto* gap = find_gap(node.body)) return gap;
    } else if (node.event.op == sim::Op::kGap) {
      return &node.event;
    }
  }
  return nullptr;
}

std::size_t lint_errors(const std::vector<trace::TraceNode>& nodes, int p,
                        bool full_cover = false) {
  analysis::DiagnosticSink sink;
  analysis::lint_trace(nodes, {.nprocs = p, .expect_full_cover = full_cover},
                       sink);
  return sink.errors();
}

/// Structural fingerprint of a trace: everything except the delta
/// histograms, which embed measured tool CPU time and therefore differ
/// between otherwise identical runs.
void shape_into(const std::vector<trace::TraceNode>& nodes, std::string* out) {
  for (const auto& node : nodes) {
    if (node.is_loop()) {
      *out += 'L' + std::to_string(node.iters) + '[';
      shape_into(node.body, out);
      *out += ']';
      continue;
    }
    const trace::EventRecord& e = node.event;
    *out += op_name(e.op);
    *out += '#' + std::to_string(e.tag) + '@' + std::to_string(e.comm) + ':' +
            e.ranks.to_string() + '/' + std::to_string(e.bytes) + ';';
  }
}

std::string shape_of(const std::vector<trace::TraceNode>& nodes) {
  std::string out;
  shape_into(nodes, &out);
  return out;
}

/// Cluster table of the fault-free reference run (stable from the first
/// clustering on; used to aim crashes at actual leads).
cluster::ClusterSet reference_clusters(int p, int steps) {
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ChameleonTool tool(p, &stacks, {.k = 3});
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks, steps); });
  return tool.clusters();
}

// --- every rank × several markers: no hang, at most one gap, clean merge --

class LeadCrash : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LeadCrash, SurvivorsFinalizeCleanly) {
  const auto [victim, marker] = GetParam();
  FaultyHarness h(16, "crash rank=" + std::to_string(victim) +
                          " marker=" + std::to_string(marker));
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 12); });

  EXPECT_TRUE(h.engine.is_failed(victim));
  EXPECT_EQ(h.engine.failed_count(), 1);

  const auto& online = h.tool.online_trace();
  EXPECT_FALSE(online.empty());
  // One gap if the victim led a cluster when it died, none otherwise —
  // never more (gaps are deduplicated per dead lead).
  EXPECT_LE(count_gaps(online), 1u);

  // Every cluster with a surviving member is led by a survivor after the
  // repair (a cluster whose members all died keeps its dead lead — there
  // is nobody to promote; rank 0's table copy is only maintained while
  // rank 0 is alive).
  if (victim != 0) {
    for (const auto& [callpath, entries] : h.tool.clusters().groups()) {
      for (const auto& entry : entries) {
        bool any_alive = false;
        for (const sim::Rank member : entry.members.members())
          if (!h.engine.is_failed(member)) any_alive = true;
        if (!any_alive) continue;
        EXPECT_FALSE(h.engine.is_failed(entry.lead))
            << "cluster of call-path " << callpath << " led by dead rank "
            << entry.lead;
      }
    }
  }

  // The merged trace is lint-clean and round-trips the serializer.
  EXPECT_EQ(lint_errors(online, 16), 0u);
  const auto bytes = trace::encode_trace(online);
  EXPECT_EQ(trace::encode_trace(trace::decode_trace(bytes)), bytes);
}

INSTANTIATE_TEST_SUITE_P(EveryRank, LeadCrash,
                         ::testing::Combine(::testing::Range(0, 16),
                                            ::testing::Values(2, 5, 8)));

// --- aimed at a known lead: exactly one gap + promotion ------------------

TEST(LeadFailover, DeadLeadYieldsExactlyOneGapAndPromotion) {
  // Aim at the lead of a multi-member cluster (so a survivor exists to be
  // promoted) that is not the home rank 0.
  const cluster::ClusterSet reference = reference_clusters(16, 12);
  sim::Rank victim = sim::kAnySource;
  for (const auto& [callpath, entries] : reference.groups()) {
    for (const auto& entry : entries) {
      if (entry.lead != 0 && entry.members.count() > 1) victim = entry.lead;
    }
  }
  ASSERT_NE(victim, sim::kAnySource);

  FaultyHarness h(16, "crash rank=" + std::to_string(victim) + " marker=8");
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 12); });

  const auto& online = h.tool.online_trace();
  ASSERT_EQ(count_gaps(online), 1u);
  const trace::EventRecord* gap = find_gap(online);
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->tag, victim);  // the gap names the dead lead
  // ... and spans the cluster the dead lead represented.
  EXPECT_TRUE(gap->ranks.contains(victim));

  // The victim's cluster is now led by its lowest-rank surviving member,
  // whose trace covers the post-crash intervals: full rank coverage holds.
  const auto* entry = h.tool.clusters().cluster_of(victim);
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->lead, victim);
  EXPECT_FALSE(h.engine.is_failed(entry->lead));
  for (sim::Rank member : entry->members.members()) {
    if (h.engine.is_failed(member)) continue;
    EXPECT_GE(entry->lead, 0);
    EXPECT_LE(entry->lead, member);  // lowest survivor wins
    break;
  }
  EXPECT_EQ(lint_errors(online, 16, /*full_cover=*/true), 0u);
}

TEST(LeadFailover, SurvivorsRepairPrivateCopiesOfTheSharedTable) {
  // Every rank holds the one broadcast table. When a lead dies, each
  // survivor repairs its own copy; the shared table stays as broadcast.
  const cluster::ClusterSet reference = reference_clusters(16, 12);
  sim::Rank victim = sim::kAnySource;
  for (const auto& [callpath, entries] : reference.groups()) {
    for (const auto& entry : entries) {
      if (entry.lead != 0 && entry.members.count() > 1) victim = entry.lead;
    }
  }
  ASSERT_NE(victim, sim::kAnySource);

  FaultyHarness h(16, "crash rank=" + std::to_string(victim) + " marker=8");
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 12); });
  ASSERT_TRUE(h.engine.is_failed(victim));

  // The victim died holding the shared table, which is unchanged: it still
  // names the victim as a lead, exactly as broadcast.
  const cluster::ClusterSet& shared = h.tool.rank_clusters(victim);
  EXPECT_EQ(shared, reference);
  const cluster::ClusterSet& repaired = h.tool.rank_clusters(0);
  EXPECT_NE(repaired, reference);
  EXPECT_NE(repaired.cluster_of(victim)->lead, victim);
  for (sim::Rank r = 0; r < 16; ++r) {
    if (r == victim) continue;
    EXPECT_EQ(h.tool.rank_clusters(r), repaired) << "rank " << r;
    EXPECT_NE(&h.tool.rank_clusters(r), &shared) << "rank " << r;
  }
}

// --- crash mid-reduction: table still reaches every survivor -------------

TEST(LeadFailover, MidReductionCrashStillYieldsClusterTable) {
  // The victim dies entering its first tool-comm send — the middle of the
  // binomial clustering reduction. CHAMELEON_FAULT_SEEDS rotates the base
  // seed in CI; determinism must hold for every seed.
  const char* env = std::getenv("CHAMELEON_FAULT_SEED");
  const std::uint64_t base =
      env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
  for (std::uint64_t seed = base; seed < base + 3; ++seed) {
    const auto run_once = [&](std::uint64_t s) {
      FaultyHarness h(16, "crash rank=5 toolop=1", s);
      h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 10); });
      EXPECT_TRUE(h.engine.is_failed(5));
      // The survivors still agreed on a cluster table.
      EXPECT_GT(h.tool.clusters().total_clusters(), 0u);
      return std::pair(shape_of(h.tool.online_trace()), h.tool.clusters());
    };
    const auto first = run_once(seed);
    EXPECT_FALSE(first.first.empty());
    EXPECT_EQ(first, run_once(seed)) << "seed " << seed;
  }
}

// --- majority of leads dead: degrade to all-ranks tracing ----------------

TEST(LeadFailover, MajorityLeadDeathDegradesToAllRanksTracing) {
  const std::vector<sim::Rank> leads = reference_clusters(16, 12).leads();
  ASSERT_GE(leads.size(), 3u);
  // Kill two of the three leads (spare the home rank so the rank-0 view
  // stays observable): 2/3 > degrade_fraction = 0.5.
  const sim::Rank a = leads[leads.size() - 2];
  const sim::Rank b = leads[leads.size() - 1];
  ASSERT_NE(a, 0);
  ASSERT_NE(b, 0);

  FaultyHarness h(16, "crash rank=" + std::to_string(a) +
                          " marker=6; crash rank=" + std::to_string(b) +
                          " marker=6");
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 14); });

  EXPECT_EQ(h.engine.failed_count(), 2);
  const auto& online = h.tool.online_trace();
  // One gap per dead lead.
  EXPECT_EQ(count_gaps(online), 2u);
  // The degradation fell back to all-ranks tracing and re-clustered.
  EXPECT_GE(h.tool.state_count(MarkerState::kClustering), 2u);
  EXPECT_EQ(lint_errors(online, 16), 0u);
}

// --- the injector must be invisible when absent --------------------------

TEST(LeadFailover, FaultFreeRunsAreStructurallyIdentical) {
  // Without an injector no fault-tolerance branch is taken: the trace
  // structure is reproducible and carries no gap nodes. (Byte-for-byte
  // identity cannot hold — delta histograms embed measured tool CPU time.)
  const auto run_once = [] {
    sim::Engine engine({.nprocs = 16});
    CallSiteRegistry stacks(16);
    ChameleonTool tool(16, &stacks, {.k = 3});
    engine.set_tool(&tool);
    EXPECT_FALSE(engine.fault_injection_enabled());
    engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks, 12); });
    EXPECT_EQ(count_gaps(tool.online_trace()), 0u);
    return std::pair(shape_of(tool.online_trace()), tool.clusters());
  };
  const auto first = run_once();
  EXPECT_FALSE(first.first.empty());
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace cham::core
