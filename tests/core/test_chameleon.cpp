// End-to-end tests of the Chameleon state machine (Algorithms 1–3).
#include "core/chameleon.hpp"

#include <gtest/gtest.h>

#include "core/acurdion.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "workloads/workload.hpp"

namespace cham::core {
namespace {

using trace::CallScope;
using trace::CallSiteRegistry;
using trace::site_id;

/// One repetitive SPMD phase: neighbour exchange + allreduce per timestep,
/// a marker after every timestep.
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

/// A structurally different phase (other call site, other pattern).
void other_phase(sim::Mpi& mpi, CallSiteRegistry& stacks, int steps) {
  for (int step = 0; step < steps; ++step) {
    CallScope scope(stacks.stack(mpi.rank()), site_id("phase.other"));
    mpi.compute(0.002);
    mpi.barrier();
    mpi.marker();
  }
}

struct Harness {
  explicit Harness(int p, ChameleonConfig cfg = {})
      : engine({.nprocs = p}), stacks(p), tool(p, &stacks, cfg) {
    engine.set_tool(&tool);
  }
  sim::Engine engine;
  CallSiteRegistry stacks;
  ChameleonTool tool;
};

TEST(Chameleon, SteadyPhaseClustersExactlyOnce) {
  // Table II's signature pattern: 10 markers -> 1 AT, 1 C, 8 L.
  Harness h(16, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 10); });
  EXPECT_EQ(h.tool.marker_calls_processed(), 10u);
  EXPECT_EQ(h.tool.state_count(MarkerState::kAllTracing), 1u);
  EXPECT_EQ(h.tool.state_count(MarkerState::kClustering), 1u);
  EXPECT_EQ(h.tool.state_count(MarkerState::kLead), 8u);
  EXPECT_EQ(h.tool.state_count(MarkerState::kFinal), 1u);
}

TEST(Chameleon, LeadStateDominatesLongRuns) {
  // Observation 1: L accounts for > 70% of marker calls on steady codes.
  Harness h(16, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 50); });
  const double lead_fraction =
      static_cast<double>(h.tool.state_count(MarkerState::kLead)) /
      static_cast<double>(h.tool.marker_calls_processed());
  EXPECT_GT(lead_fraction, 0.7);
}

TEST(Chameleon, CallFrequencyGatesProcessing) {
  Harness h(8, {.k = 3, .call_frequency = 5});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 20); });
  EXPECT_EQ(h.tool.marker_calls_processed(), 4u);
}

TEST(Chameleon, PhaseChangeTriggersFlushAndRecluster) {
  // steady -> other -> steady again: at least two clusterings and at least
  // one flush (the L that ends the first steady phase).
  Harness h(8, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) {
    steady_phase(mpi, h.stacks, 6);
    other_phase(mpi, h.stacks, 6);
  });
  EXPECT_GE(h.tool.state_count(MarkerState::kClustering), 2u);
  // AT appears at start and on each phase boundary.
  EXPECT_GE(h.tool.state_count(MarkerState::kAllTracing), 1u);
}

TEST(Chameleon, RingClustersIntoBoundaryAndInteriorGroups) {
  // The ring has 3 behaviour groups (rank 0, interior, last); with K >= 3
  // clustering should find exactly the SRC/DEST geometry split.
  Harness h(16, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 8); });
  const auto& clusters = h.tool.clusters();
  EXPECT_EQ(clusters.total_members(), 16u);
  EXPECT_EQ(clusters.total_clusters(), 3u);
  // All three groups share one Call-Path (same code path).
  EXPECT_EQ(clusters.num_callpaths(), 1u);
}

TEST(Chameleon, NonLeadsStopStoring) {
  Harness h(16, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 12); });
  const auto leads = h.tool.clusters().leads();
  ASSERT_EQ(leads.size(), 3u);
  // Non-leads allocate exactly 0 bytes per L-state call (Table IV).
  for (int r = 0; r < 16; ++r) {
    const auto& lead_bytes = h.tool.rank_ledger(r, MarkerState::kLead);
    const bool is_lead =
        std::find(leads.begin(), leads.end(), r) != leads.end();
    if (is_lead || r == 0) continue;
    EXPECT_EQ(lead_bytes.bytes_per_call(), 0u) << "rank " << r;
  }
  // Leads keep a bounded per-interval trace in L state.
  for (sim::Rank lead : leads) {
    if (lead == 0) continue;
    EXPECT_GT(h.tool.rank_ledger(lead, MarkerState::kLead).bytes_per_call(),
              0u);
  }
}

TEST(Chameleon, LeadTraceStaysBoundedAcrossQuietMarkers) {
  // RSD folding must keep the accumulating lead trace near-constant: the
  // per-call L-state bytes after 40 quiet markers should not exceed a few
  // times the bytes after 5.
  auto bytes_after = [](int steps) {
    Harness h(8, {.k = 3});
    h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, steps); });
    const auto leads = h.tool.clusters().leads();
    std::uint64_t worst = 0;
    for (sim::Rank lead : leads) {
      worst = std::max(
          worst,
          h.tool.rank_ledger(lead, MarkerState::kLead).bytes_per_call());
    }
    return worst;
  };
  const auto small = bytes_after(5);
  const auto large = bytes_after(40);
  ASSERT_GT(small, 0u);
  EXPECT_LT(large, small * 3);
}

TEST(Chameleon, OnlineTraceCoversAllEvents) {
  // The online trace must account for every traced call of the whole world:
  // expanded events * represented ranks == total world events.
  const int p = 8;
  const int steps = 10;
  Harness h(p, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, steps); });
  std::uint64_t covered = 0;
  std::vector<const trace::TraceNode*> stack;
  // Count expanded (event, rank) pairs in the online trace.
  std::function<void(const trace::TraceNode&, std::uint64_t)> walk =
      [&](const trace::TraceNode& node, std::uint64_t mult) {
        if (node.is_loop()) {
          for (const auto& child : node.body) walk(child, mult * node.iters);
        } else {
          covered += mult * node.event.ranks.count();
        }
      };
  for (const auto& node : h.tool.online_trace()) walk(node, 1);
  // Each rank records isend + recv + allreduce + marker per step = 4 events.
  EXPECT_EQ(covered, static_cast<std::uint64_t>(p * steps * 4));
}

TEST(Chameleon, OnlineTraceMatchesScalaTraceShape) {
  // Chameleon's online trace and ScalaTrace's finalize-time global trace
  // must describe the same event classes for the same app.
  const int p = 8;
  auto leaves_of = [](const std::vector<trace::TraceNode>& nodes) {
    std::size_t n = 0;
    for (const auto& node : nodes) n += node.leaf_count();
    return n;
  };

  Harness ch(p, {.k = 3});
  ch.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, ch.stacks, 10); });

  sim::Engine engine2({.nprocs = p});
  CallSiteRegistry stacks2(p);
  trace::ScalaTraceTool st(p, &stacks2);
  engine2.set_tool(&st);
  engine2.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks2, 10); });

  EXPECT_FALSE(ch.tool.online_trace().empty());
  EXPECT_FALSE(st.global_trace().empty());
  // Same order of magnitude of distinct event classes (exact equality is
  // not required: interval boundaries can split loops differently).
  const auto ch_leaves = leaves_of(ch.tool.online_trace());
  const auto st_leaves = leaves_of(st.global_trace());
  EXPECT_LE(ch_leaves, st_leaves * 3);
  EXPECT_LE(st_leaves, ch_leaves * 3);
}

TEST(Chameleon, DynamicKGrowsWithCallpaths) {
  // Master/worker split produces 2 Call-Paths; K=1 must still keep one
  // representative per Call-Path.
  const int p = 8;
  Harness h(p, {.k = 1});
  h.engine.run([&](sim::Mpi& mpi) {
    for (int step = 0; step < 8; ++step) {
      if (mpi.rank() == 0) {
        CallScope scope(h.stacks.stack(0), site_id("master"));
        for (int w = 1; w < p; ++w) mpi.recv(sim::kAnySource, 16);
      } else {
        CallScope scope(h.stacks.stack(mpi.rank()), site_id("worker"));
        mpi.send(0, 16);
      }
      mpi.marker();
    }
  });
  EXPECT_EQ(h.tool.num_callpath_clusters(), 2u);
  EXPECT_GE(h.tool.effective_k(), 2u);
}

TEST(Chameleon, StateCountersConsistent) {
  Harness h(8, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 25); });
  const auto total = h.tool.state_count(MarkerState::kAllTracing) +
                     h.tool.state_count(MarkerState::kClustering) +
                     h.tool.state_count(MarkerState::kLead);
  EXPECT_EQ(total, h.tool.marker_calls_processed());
  EXPECT_EQ(h.tool.state_count(MarkerState::kFinal), 1u);
}

TEST(Chameleon, SingleRankWorldWorks) {
  Harness h(1, {.k = 3});
  h.engine.run([&](sim::Mpi& mpi) {
    for (int i = 0; i < 5; ++i) {
      CallScope scope(h.stacks.stack(0), site_id("solo"));
      mpi.compute(0.001);
      mpi.barrier();
      mpi.marker();
    }
  });
  EXPECT_EQ(h.tool.marker_calls_processed(), 5u);
  EXPECT_FALSE(h.tool.online_trace().empty());
}

TEST(Chameleon, NoMarkersStillProducesTraceAtFinalize) {
  Harness h(4, {.k = 2});
  h.engine.run([&](sim::Mpi& mpi) {
    CallScope scope(h.stacks.stack(mpi.rank()), site_id("plain"));
    for (int i = 0; i < 10; ++i) mpi.barrier();
  });
  EXPECT_EQ(h.tool.marker_calls_processed(), 0u);
  EXPECT_FALSE(h.tool.online_trace().empty());
  EXPECT_EQ(h.tool.state_count(MarkerState::kFinal), 1u);
}

TEST(Chameleon, ChameleonInterWorkMuchSmallerThanScalaTrace) {
  // The core claim (Observations 2/6): inter-compression work with K leads
  // is far below ScalaTrace's all-P merge for the same app.
  const int p = 64;
  Harness ch(p, {.k = 3});
  ch.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, ch.stacks, 20); });

  sim::Engine engine2({.nprocs = p});
  CallSiteRegistry stacks2(p);
  trace::ScalaTraceTool st(p, &stacks2);
  engine2.set_tool(&st);
  engine2.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks2, 20); });

  // Participants: 3 leads versus 64 ranks. Allow generous slack — this is
  // a structural assertion, not a benchmark.
  EXPECT_LT(ch.tool.online_inter_seconds(), st.inter_seconds());
}

// ---------------------------------------------------------------------------
// The tool ledger: every tool second lives in the per-rank PerfCounters
// slots, and each view of it reads the same numbers.
// ---------------------------------------------------------------------------

TEST(Chameleon, StateSecondsSumToClusteringPlusInter) {
  // Each processed marker charges its state the growth of the rank's
  // clustering + inter seconds, so the four states partition them. lu_mod
  // re-clusters, so every state and the flush path carry seconds.
  const workloads::WorkloadInfo* info = workloads::find_workload("lu_mod");
  ASSERT_NE(info, nullptr);
  Harness h(64, {.k = info->default_k});
  workloads::WorkloadParams params;
  params.cls = 'A';
  params.timesteps = 12;
  params.perturb_every = 3;
  h.engine.run([&](sim::Mpi& mpi) { info->run(mpi, h.stacks, params); });
  ASSERT_GT(h.tool.reclusterings(), 1u);

  double states = 0.0;
  for (const MarkerState state :
       {MarkerState::kAllTracing, MarkerState::kClustering, MarkerState::kLead,
        MarkerState::kFinal})
    states += h.tool.state_seconds(state);
  const double ledger = h.tool.clustering_seconds() + h.tool.inter_seconds();
  EXPECT_GT(h.tool.clustering_seconds(), 0.0);
  EXPECT_GT(h.tool.inter_seconds(), 0.0);
  EXPECT_NEAR(states, ledger, 1e-9 * ledger);
}

/// The aggregate counters, the seconds accessors and the per-rank slots
/// must agree field by field.
void expect_ledger_agrees(const trace::ScalaTraceTool& tool) {
  const trace::PerfCounters& perf = tool.perf_counters();
  EXPECT_EQ(perf.intra_seconds, tool.intra_seconds());
  EXPECT_EQ(perf.inter_seconds, tool.inter_seconds());
  EXPECT_EQ(perf.clustering_seconds, tool.clustering_seconds());
  EXPECT_EQ(tool.total_tool_seconds(), tool.intra_seconds() +
                                           tool.clustering_seconds() +
                                           tool.inter_seconds());
  double intra = 0.0;
  double inter = 0.0;
  double clustering = 0.0;
  for (int r = 0; r < tool.nprocs(); ++r) {
    intra += tool.rank_perf_counters(r).intra_seconds;
    inter += tool.rank_perf_counters(r).inter_seconds;
    clustering += tool.rank_perf_counters(r).clustering_seconds;
  }
  EXPECT_DOUBLE_EQ(intra, tool.intra_seconds());
  EXPECT_DOUBLE_EQ(inter, tool.inter_seconds());
  EXPECT_DOUBLE_EQ(clustering, tool.clustering_seconds());
  EXPECT_GT(tool.intra_seconds(), 0.0);
  EXPECT_GT(tool.inter_seconds(), 0.0);
}

TEST(ToolLedger, PerfCountersSecondsMatchAccessors) {
  const int p = 16;
  {
    Harness h(p, {.k = 3});
    h.engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, h.stacks, 10); });
    expect_ledger_agrees(h.tool);
    EXPECT_GT(h.tool.clustering_seconds(), 0.0);
  }
  {
    sim::Engine engine({.nprocs = p});
    CallSiteRegistry stacks(p);
    AcurdionTool tool(p, &stacks, {.k = 3});
    engine.set_tool(&tool);
    engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks, 10); });
    expect_ledger_agrees(tool);
    EXPECT_GT(tool.clustering_seconds(), 0.0);
  }
  {
    sim::Engine engine({.nprocs = p});
    CallSiteRegistry stacks(p);
    trace::ScalaTraceTool tool(p, &stacks);
    engine.set_tool(&tool);
    engine.run([&](sim::Mpi& mpi) { steady_phase(mpi, stacks, 10); });
    expect_ledger_agrees(tool);
    EXPECT_EQ(tool.clustering_seconds(), 0.0);  // ScalaTrace never clusters
  }
}

}  // namespace
}  // namespace cham::core
