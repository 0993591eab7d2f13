// Fault injection runtime: plan parsing, deterministic crash/drop/slowdown
// delivery, and the engine's liveness semantics (sends to dead ranks fail
// with a status, receives from dead sources time out, collectives route
// around dead subtrees).
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "sim/tool.hpp"

namespace cham::sim {
namespace {

TEST(FaultPlan, ParsesTextForm) {
  const FaultPlan plan = FaultPlan::parse(
      "# full grammar, one spec per line or ';'-separated\n"
      "crash rank=3 marker=2\n"
      "crash rank=5 call=17; drop src=1 dest=2 prob=0.5\n"
      "slow rank=0 call=5 span=10 secs=1e-4\n",
      42);
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.faults[0].rank, 3);
  EXPECT_EQ(plan.faults[0].at_marker, 2u);
  EXPECT_EQ(plan.faults[1].at_call, 17u);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kDrop);
  EXPECT_EQ(plan.faults[2].rank, 1);
  EXPECT_EQ(plan.faults[2].dest, 2);
  EXPECT_DOUBLE_EQ(plan.faults[2].probability, 0.5);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kSlowdown);
  EXPECT_EQ(plan.faults[3].span_calls, 10u);
  EXPECT_DOUBLE_EQ(plan.faults[3].slow_seconds, 1e-4);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode rank=1 call=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash rank=x call=1"), std::invalid_argument);
}

TEST(FaultInjector, CrashStopsRankAndCollectivesRouteAround) {
  FaultInjector injector(FaultPlan::parse("crash rank=2 call=3"));
  Engine engine({.nprocs = 4});
  engine.set_fault_injector(&injector);
  std::array<int, 4> iters{};
  engine.run([&](Mpi& mpi) {
    for (int i = 0; i < 10; ++i) {
      mpi.barrier();
      ++iters[static_cast<std::size_t>(mpi.rank())];
    }
  });
  EXPECT_EQ(injector.crashes_injected(), 1u);
  EXPECT_TRUE(engine.is_failed(2));
  EXPECT_EQ(engine.failed_count(), 1);
  EXPECT_EQ(engine.live_ranks(), (std::vector<Rank>{0, 1, 3}));
  EXPECT_EQ(engine.failed_ranks(), (std::vector<Rank>{2}));
  // Traced calls count MPI_Init as call 1: the victim completed one
  // barrier and died entering its second; survivors ran to the end.
  EXPECT_EQ(iters[2], 1);
  for (const Rank r : {0, 1, 3}) {
    EXPECT_EQ(iters[static_cast<std::size_t>(r)], 10) << "rank " << r;
  }
}

TEST(FaultInjector, RoutedAroundAllreduceSumsTheSurvivors) {
  // Ranks 0 and 1 block in a world allreduce; rank 2 dies entering its
  // barrier (traced call 2, after MPI_Init) without ever joining it. The
  // fault stall step finishes the allreduce for the survivors, folding
  // their contributions only.
  FaultInjector injector(FaultPlan::parse("crash rank=2 call=2"));
  Engine engine({.nprocs = 3});
  engine.set_fault_injector(&injector);
  const std::array<std::uint64_t, 3> value{5, 7, 11};
  std::array<std::vector<std::uint64_t>, 3> got;
  engine.run([&](Mpi& mpi) {
    const auto r = static_cast<std::size_t>(mpi.rank());
    if (mpi.rank() == 2) {
      mpi.barrier();
      return;
    }
    got[r] = mpi.engine().pmpi_allreduce(mpi.rank(), kCommWorld,
                                         ReduceOp::kSum, {value[r]});
  });
  EXPECT_EQ(engine.failed_ranks(), (std::vector<Rank>{2}));
  EXPECT_EQ(got[0], (std::vector<std::uint64_t>{12}));
  EXPECT_EQ(got[1], (std::vector<std::uint64_t>{12}));
  EXPECT_TRUE(got[2].empty());
}

TEST(FaultInjector, SendToDeadRankReportsPeerFailure) {
  FaultInjector injector(FaultPlan::parse("crash rank=1 call=1"));
  Engine engine({.nprocs = 2});
  engine.set_fault_injector(&injector);
  CommResult result = CommResult::kOk;
  engine.run([&](Mpi& mpi) {
    mpi.barrier();  // completes among survivors once rank 1 is dead
    if (mpi.rank() == 0) result = mpi.send(1, 64);
  });
  EXPECT_EQ(result, CommResult::kPeerFailed);
  EXPECT_EQ(engine.messages_lost(), 1u);
}

TEST(FaultInjector, RecvFromDeadRankTimesOut) {
  FaultInjector injector(FaultPlan::parse("crash rank=1 call=1"));
  Engine engine({.nprocs = 2});
  engine.set_fault_injector(&injector);
  RecvStatus status;
  double after_recv = 0.0;
  engine.run([&](Mpi& mpi) {
    mpi.barrier();
    if (mpi.rank() == 0) {
      status = mpi.recv(1, 64);
      after_recv = mpi.vtime();
    }
  });
  EXPECT_TRUE(status.peer_failed);
  // The failed receive charges the full retry/backoff budget.
  EXPECT_GE(after_recv, kFaultTolerance.recv_fail_delay());
}

TEST(FaultInjector, StallTimesOutOnlyReceivesFromDeadRanks) {
  // At the stall, rank 0 waits on live rank 1 and rank 1 on rank 2, which
  // died entering its barrier. Only rank 1's receive times out; rank 1 then
  // sends, and rank 0 gets that message.
  FaultInjector injector(FaultPlan::parse("crash rank=2 call=2"));
  Engine engine({.nprocs = 3});
  engine.set_fault_injector(&injector);
  std::array<RecvStatus, 3> status;
  engine.run([&](Mpi& mpi) {
    switch (mpi.rank()) {
      case 0:
        status[0] = mpi.recv(1, 8, /*tag=*/5);
        break;
      case 1:
        status[1] = mpi.recv(2, 8, /*tag=*/6);
        mpi.send(0, 8, /*tag=*/5);
        break;
      default:
        mpi.barrier();
    }
  });
  EXPECT_TRUE(status[1].peer_failed);
  EXPECT_FALSE(status[0].peer_failed);
  EXPECT_EQ(status[0].source, 1);
  EXPECT_TRUE(engine.unexpected_messages(kCommWorld, 0).empty());
}

TEST(FaultInjector, DropsExhaustRetryBudget) {
  FaultInjector injector(FaultPlan::parse("drop src=0 dest=1 prob=1"));
  Engine engine({.nprocs = 2});
  engine.set_fault_injector(&injector);
  CommResult result = CommResult::kOk;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) result = mpi.send(1, 32);
  });
  EXPECT_EQ(result, CommResult::kLost);
  EXPECT_EQ(engine.messages_lost(), 1u);
  EXPECT_GE(engine.retransmissions(),
            static_cast<std::uint64_t>(kFaultTolerance.retries));
  EXPECT_GT(injector.drops_injected(), 0u);
  EXPECT_FALSE(engine.is_failed(1));  // drops do not kill ranks
}

TEST(FaultInjector, DropDecisionsAreSeedDeterministic) {
  const auto roll = [](std::uint64_t seed) {
    FaultInjector injector(
        FaultPlan::parse("drop src=0 dest=1 prob=0.5", seed));
    std::vector<bool> rolls;
    rolls.reserve(64);
    for (int i = 0; i < 64; ++i) rolls.push_back(injector.drop_message(0, 1));
    return rolls;
  };
  EXPECT_EQ(roll(7), roll(7));
  EXPECT_NE(roll(7), roll(8));
}

TEST(FaultInjector, PartialDropsAreRetriedTransparently) {
  // With drop probability < 1 most messages arrive after bounded retry;
  // the few that exhaust the budget are reported kLost, every outcome is
  // deterministic, and the engine's counters reconcile exactly.
  const auto run_once = [] {
    FaultInjector injector(FaultPlan::parse("drop src=0 dest=1 prob=0.4", 9));
    Engine engine({.nprocs = 2});
    engine.set_fault_injector(&injector);
    std::vector<CommResult> results;
    engine.run([&](Mpi& mpi) {
      if (mpi.rank() != 0) return;
      for (int i = 0; i < 20; ++i) results.push_back(mpi.send(1, 8, i));
    });
    std::size_t delivered = 0;
    for (const CommResult r : results)
      if (r == CommResult::kOk) ++delivered;
    EXPECT_EQ(delivered, engine.unexpected_messages(kCommWorld, 1).size());
    EXPECT_EQ(delivered + engine.messages_lost(), results.size());
    return std::tuple(results, engine.retransmissions(),
                      engine.messages_lost());
  };
  const auto first = run_once();
  EXPECT_GT(std::get<1>(first), 0u);  // some attempts were retried
  EXPECT_EQ(first, run_once());       // ... identically on every run
}

TEST(FaultInjector, SlowdownAddsVirtualTime) {
  const auto vtime_of = [](const char* plan) {
    FaultInjector injector(FaultPlan::parse(plan));
    Engine engine({.nprocs = 1});
    engine.set_fault_injector(&injector);
    engine.run([](Mpi& mpi) {
      for (int i = 0; i < 10; ++i) mpi.barrier();
    });
    return engine.vtime(0);
  };
  const double base = vtime_of("");
  const double slowed = vtime_of("slow rank=0 call=1 span=5 secs=0.001");
  EXPECT_NEAR(slowed - base, 5 * 0.001, 1e-9);
}

TEST(FaultInjector, CrashAtToolOpKillsMidProtocol) {
  // A tool-side exchange after every barrier; rank 0 dies entering its
  // 2nd tool-comm operation, so rank 1's second receive sees the failure.
  class ChattyTool : public Tool {
   public:
    void on_post(Rank rank, const CallInfo& info, Pmpi& pmpi) override {
      if (info.op != Op::kBarrier) return;
      if (rank == 0) {
        pmpi.send_bytes(1, 99, std::vector<std::uint8_t>{1, 2, 3});
      } else {
        statuses.emplace_back();
        pmpi.recv_bytes(0, 99, &statuses.back());
      }
    }
    std::vector<RecvStatus> statuses;
  };

  FaultInjector injector(FaultPlan::parse("crash rank=0 toolop=2"));
  Engine engine({.nprocs = 2});
  engine.set_fault_injector(&injector);
  ChattyTool tool;
  engine.set_tool(&tool);
  engine.run([](Mpi& mpi) {
    mpi.barrier();
    mpi.barrier();
  });
  EXPECT_TRUE(engine.is_failed(0));
  ASSERT_EQ(tool.statuses.size(), 2u);
  EXPECT_FALSE(tool.statuses[0].peer_failed);
  EXPECT_TRUE(tool.statuses[1].peer_failed);
}

TEST(FaultInjector, NoInjectorMeansNoFaultPaths) {
  Engine engine({.nprocs = 2});
  EXPECT_FALSE(engine.fault_injection_enabled());
  engine.run([](Mpi& mpi) { mpi.barrier(); });
  EXPECT_EQ(engine.failed_count(), 0);
  EXPECT_EQ(engine.messages_lost(), 0u);
  EXPECT_EQ(engine.retransmissions(), 0u);
}

}  // namespace
}  // namespace cham::sim
