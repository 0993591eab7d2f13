// End-to-end: ScalaTrace tool over the minimpi runtime.
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "support/timer.hpp"
#include "trace/serialize.hpp"

namespace cham::trace {
namespace {

/// A small SPMD ring kernel every rank executes identically.
void ring_kernel(sim::Mpi& mpi, CallSiteRegistry& stacks, int steps) {
  CallScope main_scope(stacks.stack(mpi.rank()), site_id("main"));
  const int p = mpi.size();
  for (int step = 0; step < steps; ++step) {
    CallScope loop_scope(stacks.stack(mpi.rank()), site_id("main.loop"));
    const sim::Rank next = (mpi.rank() + 1) % p;
    const sim::Rank prev = (mpi.rank() + p - 1) % p;
    mpi.compute(0.001);
    mpi.isend(next, 64, 1);
    mpi.recv(prev, 64, 1);
    mpi.barrier();
  }
}

TEST(Tracer, GlobalTraceCoversAllRanksCompactly) {
  const int p = 16;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { ring_kernel(mpi, stacks, 20); });

  const auto& global = tool.global_trace();
  ASSERT_FALSE(global.empty());
  // Relative endpoint encoding splits a ring into exactly three behaviour
  // groups (rank 0 wraps its receive, the interior, the last rank wraps its
  // send), each compressed to one loop — 9 leaves total, independent of P.
  std::size_t leaves = 0;
  std::size_t covered = 0;
  for (const auto& node : global) {
    leaves += node.leaf_count();
    ASSERT_TRUE(node.is_loop());
    EXPECT_EQ(node.iters, 20u);
    covered += node.body[0].event.ranks.count();
  }
  EXPECT_EQ(leaves, 9u);
  EXPECT_EQ(global.size(), 3u);
  EXPECT_EQ(covered, static_cast<std::size_t>(p));  // groups partition ranks
}

TEST(Tracer, EventCountsMatchCalls) {
  const int p = 4;
  const int steps = 10;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { ring_kernel(mpi, stacks, steps); });
  // isend + recv + barrier per step per rank (wait folded into recv; the
  // barrier is one event per rank).
  EXPECT_EQ(tool.events_recorded_total(),
            static_cast<std::uint64_t>(p * steps * 3));
}

TEST(Tracer, TraceSizeIndependentOfP) {
  auto run_size = [](int p) {
    sim::Engine engine({.nprocs = p});
    CallSiteRegistry stacks(p);
    ScalaTraceTool tool(p, &stacks);
    engine.set_tool(&tool);
    engine.run([&](sim::Mpi& mpi) { ring_kernel(mpi, stacks, 10); });
    return encode_trace(tool.global_trace()).size();
  };
  const auto s8 = run_size(8);
  const auto s64 = run_size(64);
  // Near-constant-size global traces regardless of node count (ScalaTrace's
  // headline property); allow small wobble from ranklist sections.
  EXPECT_LT(s64, s8 * 2);
}

TEST(Tracer, DeltaTimesCaptureComputePhases) {
  const int p = 2;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) {
    CallScope scope(stacks.stack(mpi.rank()), site_id("main"));
    for (int i = 0; i < 5; ++i) {
      mpi.compute(0.25);
      mpi.barrier();
    }
  });
  const auto& global = tool.global_trace();
  ASSERT_EQ(global.size(), 1u);
  ASSERT_TRUE(global[0].is_loop());
  const auto& barrier = global[0].body[0];
  EXPECT_EQ(barrier.event.op, sim::Op::kBarrier);
  EXPECT_NEAR(barrier.event.delta.mean(), 0.25, 0.01);
}

TEST(Tracer, RelativeEncodingMakesNeighborSendsIdentical) {
  // In a ring, every rank sends to +1: the merged trace should contain ONE
  // isend event covering all ranks (the relative encoding property).
  const int p = 8;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) {
    CallScope scope(stacks.stack(mpi.rank()), site_id("main"));
    const sim::Rank next = (mpi.rank() + 1) % p;
    const sim::Rank prev = (mpi.rank() + p - 1) % p;
    mpi.isend(next, 32, 0);
    mpi.recv(prev, 32, 0);
  });
  int isend_events = 0;
  for (const auto& node : tool.global_trace()) {
    if (!node.is_loop() && node.event.op == sim::Op::kIsend) ++isend_events;
  }
  // Ranks 0..p-2 send +1; rank p-1 sends -(p-1): two distinct events.
  EXPECT_EQ(isend_events, 2);
}

TEST(Tracer, StoringFlagSuppressesTraceGrowth) {
  const int p = 2;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);

  class NonStoringTool : public ScalaTraceTool {
   public:
    using ScalaTraceTool::ScalaTraceTool;
    void on_init(sim::Rank rank, sim::Pmpi& pmpi) override {
      ScalaTraceTool::on_init(rank, pmpi);
      if (rank == 1) state(rank).storing = false;
    }
    // Keep the rank traces: no finalize merge takes them.
    void handle_finalize(sim::Rank /*rank*/, sim::Pmpi& /*pmpi*/) override {}
  };
  NonStoringTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) {
    for (int i = 0; i < 10; ++i) mpi.barrier();
  });
  EXPECT_GT(tool.rank_state(0).events_recorded, 0u);
  EXPECT_EQ(tool.rank_state(1).events_recorded, 0u);
  EXPECT_EQ(tool.rank_state(1).events_observed,
            tool.rank_state(0).events_observed);
  EXPECT_GT(tool.rank_trace_bytes(0), tool.rank_trace_bytes(1));
}

TEST(Tracer, TimersAccumulate) {
  const int p = 8;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { ring_kernel(mpi, stacks, 50); });
  EXPECT_GT(tool.intra_seconds(), 0.0);
  EXPECT_GT(tool.inter_seconds(), 0.0);
}

/// Busy-waits until the host clock has moved, so a section around it
/// records a non-zero time.
void spin_a_little() {
  const double start = support::thread_cpu_seconds();
  while (support::thread_cpu_seconds() - start < 50e-6) {
  }
}

/// Runs a charged and then an uncharged ToolSection inside the post hook of
/// the world's only barrier, reading the rank's virtual clock around each.
class SectionProbe : public sim::Tool {
 public:
  void on_post(sim::Rank /*rank*/, const sim::CallInfo& info,
               sim::Pmpi& pmpi) override {
    if (info.op != sim::Op::kBarrier) return;
    before_charged = pmpi.vtime();
    {
      const ToolSection timed(perf.inter_seconds, pmpi);
      spin_a_little();
    }
    after_charged = pmpi.vtime();
    {
      const ToolSection timed(perf.intra_seconds);
      spin_a_little();
    }
    after_uncharged = pmpi.vtime();
  }

  PerfCounters perf;
  double before_charged = -1.0;
  double after_charged = -1.0;
  double after_uncharged = -1.0;
};

TEST(ToolSection, ChargedAdvancesVtimeByTheSecondsItRecords) {
  sim::Engine engine({.nprocs = 1});
  SectionProbe probe;
  engine.set_tool(&probe);
  engine.run([](sim::Mpi& mpi) { mpi.barrier(); });
  ASSERT_GE(probe.before_charged, 0.0);
  EXPECT_GT(probe.perf.inter_seconds, 0.0);
  EXPECT_EQ(probe.after_charged,
            probe.before_charged + probe.perf.inter_seconds);
}

TEST(ToolSection, UnchargedLeavesVtimeUnchanged) {
  sim::Engine engine({.nprocs = 1});
  SectionProbe probe;
  engine.set_tool(&probe);
  engine.run([](sim::Mpi& mpi) { mpi.barrier(); });
  ASSERT_GE(probe.after_charged, 0.0);
  EXPECT_GT(probe.perf.intra_seconds, 0.0);
  EXPECT_EQ(probe.after_uncharged, probe.after_charged);
}

TEST(Tracer, MasterWorkerWildcardTraced) {
  const int p = 4;
  sim::Engine engine({.nprocs = p});
  CallSiteRegistry stacks(p);
  ScalaTraceTool tool(p, &stacks);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) {
    CallScope scope(stacks.stack(mpi.rank()),
                    site_id(mpi.rank() == 0 ? "master" : "worker"));
    if (mpi.rank() == 0) {
      for (int i = 0; i < p - 1; ++i) mpi.recv(sim::kAnySource, 8);
    } else {
      mpi.send(0, 8);
    }
  });
  // Find the wildcard receive in the global trace.
  bool found_any = false;
  for (const auto& node : tool.global_trace()) {
    const auto check = [&](const TraceNode& n) {
      if (!n.is_loop() && n.event.op == sim::Op::kRecv &&
          n.event.src.kind == Endpoint::Kind::kAny) {
        found_any = true;
      }
    };
    if (node.is_loop()) {
      for (const auto& child : node.body) check(child);
    } else {
      check(node);
    }
  }
  EXPECT_TRUE(found_any);
}

}  // namespace
}  // namespace cham::trace
