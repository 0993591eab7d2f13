#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mpi.hpp"

namespace cham::sim {
namespace {

TEST(Collectives, BarrierSynchronizesVirtualClocks) {
  Engine engine({.nprocs = 4});
  std::vector<double> after(4);
  engine.run([&](Mpi& mpi) {
    mpi.compute(static_cast<double>(mpi.rank()));  // skewed clocks
    mpi.barrier();
    after[static_cast<std::size_t>(mpi.rank())] = mpi.vtime();
  });
  for (int r = 1; r < 4; ++r) EXPECT_DOUBLE_EQ(after[0], after[static_cast<std::size_t>(r)]);
  EXPECT_GT(after[0], 3.0);  // slowest rank dominates
}

TEST(Collectives, ReduceSumsAtRoot) {
  Engine engine({.nprocs = 8});
  std::uint64_t at_root = 0;
  engine.run([&](Mpi& mpi) {
    const std::uint64_t v =
        mpi.pmpi().reduce_u64(static_cast<std::uint64_t>(mpi.rank()),
                              ReduceOp::kSum, 0);
    if (mpi.rank() == 0) at_root = v;
  });
  EXPECT_EQ(at_root, 28u);  // 0+1+...+7
}

TEST(Collectives, ReduceMaxMin) {
  Engine engine({.nprocs = 5});
  std::uint64_t got_max = 0, got_min = 99;
  engine.run([&](Mpi& mpi) {
    const auto v = static_cast<std::uint64_t>(mpi.rank() * 10 + 1);
    const std::uint64_t mx = mpi.pmpi().reduce_u64(v, ReduceOp::kMax, 0);
    const std::uint64_t mn = mpi.pmpi().reduce_u64(v, ReduceOp::kMin, 0);
    if (mpi.rank() == 0) {
      got_max = mx;
      got_min = mn;
    }
  });
  EXPECT_EQ(got_max, 41u);
  EXPECT_EQ(got_min, 1u);
}

TEST(Collectives, AllreduceVisibleEverywhere) {
  Engine engine({.nprocs = 6});
  std::vector<std::uint64_t> results(6);
  engine.run([&](Mpi& mpi) {
    results[static_cast<std::size_t>(mpi.rank())] =
        mpi.pmpi().allreduce_u64(1, ReduceOp::kSum);
  });
  for (auto v : results) EXPECT_EQ(v, 6u);
}

TEST(Collectives, BcastFromNonzeroRoot) {
  Engine engine({.nprocs = 4});
  std::vector<std::uint64_t> results(4);
  engine.run([&](Mpi& mpi) {
    const std::uint64_t mine = mpi.rank() == 2 ? 777 : 0;
    results[static_cast<std::size_t>(mpi.rank())] =
        mpi.pmpi().bcast_u64(mine, 2);
  });
  for (auto v : results) EXPECT_EQ(v, 777u);
}

TEST(Collectives, BcastBytesCopiesBlob) {
  Engine engine({.nprocs = 3});
  std::vector<std::vector<std::uint8_t>> results(3);
  engine.run([&](Mpi& mpi) {
    std::vector<std::uint8_t> data;
    if (mpi.rank() == 0) data = {5, 6, 7};
    results[static_cast<std::size_t>(mpi.rank())] =
        mpi.pmpi().bcast_bytes(std::move(data), 0);
  });
  for (const auto& v : results) {
    EXPECT_EQ(v, (std::vector<std::uint8_t>{5, 6, 7}));
  }
}

TEST(Collectives, GatherCollectsPerRankBlobs) {
  Engine engine({.nprocs = 4});
  std::vector<std::vector<std::uint8_t>> at_root;
  engine.run([&](Mpi& mpi) {
    auto out = mpi.pmpi().gather_bytes(
        {static_cast<std::uint8_t>(mpi.rank() * 2)}, 0);
    if (mpi.rank() == 0) at_root = std::move(out);
  });
  ASSERT_EQ(at_root.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(at_root[static_cast<std::size_t>(r)].size(), 1u);
    EXPECT_EQ(at_root[static_cast<std::size_t>(r)][0], r * 2);
  }
}

TEST(Collectives, SequentialCollectivesKeepSlotsSeparate) {
  // Two barriers back to back must be two distinct rendezvous.
  Engine engine({.nprocs = 3});
  engine.run([&](Mpi& mpi) {
    mpi.barrier();
    mpi.barrier();
    mpi.barrier();
  });
  EXPECT_EQ(engine.collectives_run(), 3u);
}

TEST(Collectives, MarkerUsesDistinctCommunicator) {
  // Marker barriers and world barriers must not rendezvous together even
  // when interleaved — distinct communicators carry distinct slot counters.
  Engine engine({.nprocs = 2});
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.marker();
      mpi.barrier();
    } else {
      mpi.marker();
      mpi.barrier();
    }
  });
  EXPECT_EQ(engine.collectives_run(), 2u);
}

TEST(Collectives, SkeletonCollectivesAdvanceClock) {
  Engine engine({.nprocs = 4});
  std::vector<double> t(4);
  engine.run([&](Mpi& mpi) {
    mpi.bcast(1 << 20, 0);
    mpi.allreduce(64);
    mpi.gather(4096, 0);
    mpi.allgather(512);
    mpi.alltoall(256);
    mpi.scatter(2048, 0);
    mpi.reduce(64, 0);
    t[static_cast<std::size_t>(mpi.rank())] = mpi.vtime();
  });
  EXPECT_GT(t[0], 0.0);
  for (int r = 1; r < 4; ++r) EXPECT_DOUBLE_EQ(t[0], t[static_cast<std::size_t>(r)]);
  EXPECT_EQ(engine.collectives_run(), 7u);
}

TEST(Collectives, LateArrivalAtForcedBarrierKeepsSiteAlive) {
  // Approximate progress (the replayer's mode for approximated traces):
  // ranks 2 and 3 wait in a barrier that rank 1 never calls, while rank 0
  // computes 5 s and then waits for a message that never comes. The stall
  // cancels the receive and force-completes the barrier for ranks 2 and 3
  // at their latest arrival (0 s). Rank 0 wakes first and reaches the
  // forced barrier late, before ranks 2 and 3 have left it; its late
  // arrival does not make the barrier whole. Every rank that entered must
  // leave, the site must stay alive until the last of them has
  // (AddressSanitizer flags the use-after-free if it is erased early), and
  // the late rank's clock must not run back to the forced completion time.
  Engine engine({.nprocs = 4});
  engine.enable_approximate_progress();
  std::vector<int> left(4, 0);
  double late_leaves_at = 0.0;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.compute(5.0);
      mpi.recv(1, 8, /*tag=*/7);
    }
    if (mpi.rank() != 1) mpi.barrier();
    if (mpi.rank() == 0) late_leaves_at = mpi.vtime();
    left[static_cast<std::size_t>(mpi.rank())] = 1;
  });
  EXPECT_EQ(left, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(engine.cancelled_recvs(), 1u);
  EXPECT_GE(engine.forced_collectives(), 1u);
  EXPECT_GE(late_leaves_at, 5.0);
}

struct LateBarrierProbe {
  std::uint64_t collectives = 0;
  std::uint64_t forced = 0;
  std::vector<double> arrived;  ///< per rank: virtual time at the barrier
  std::vector<double> left;     ///< per rank: virtual time leaving it
};

/// Approximate progress: all four ranks call a world barrier, but `late`
/// first computes 5 s and waits on a receive that never comes. The stall
/// cancels the receive and forces the barrier for the other three; the
/// late rank then arrives at the forced site.
LateBarrierProbe late_barrier_probe(Rank late) {
  Engine engine({.nprocs = 4});
  engine.enable_approximate_progress();
  LateBarrierProbe probe;
  probe.arrived.assign(4, -1.0);
  probe.left.assign(4, -1.0);
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == late) {
      mpi.compute(5.0);
      mpi.recv((late + 1) % 4, 8, /*tag=*/7);
    }
    probe.arrived[static_cast<std::size_t>(mpi.rank())] = mpi.vtime();
    mpi.barrier();
    probe.left[static_cast<std::size_t>(mpi.rank())] = mpi.vtime();
  });
  probe.collectives = engine.collectives_run();
  probe.forced = engine.forced_collectives();
  return probe;
}

TEST(Collectives, LateArrivalAtForcedBarrierDoesNotDependOnRankOrder) {
  // Whether the late rank runs before or after the forced waiters leave
  // the site (rank 0 runs first, rank 3 last), it joins the forced site
  // and changes nothing there: one forced barrier, no second completion.
  const LateBarrierProbe first = late_barrier_probe(0);
  const LateBarrierProbe last = late_barrier_probe(3);
  EXPECT_EQ(first.collectives, last.collectives);
  EXPECT_EQ(first.forced, last.forced);
  EXPECT_EQ(first.forced, 1u);
  for (const auto& [late, probe] :
       {std::pair<Rank, const LateBarrierProbe&>{0, first}, {3, last}}) {
    // The forced completion is the latest of the three on-time arrivals.
    const double forced_at = probe.left[late == 0 ? 1 : 0];
    EXPECT_LT(forced_at, 5.0) << "late rank " << late;
    for (Rank r = 0; r < 4; ++r) {
      const double left = probe.left[static_cast<std::size_t>(r)];
      if (r == late) {
        // Leaves at its own arrival: the cancelled receive's completion,
        // just after the 5 s of compute.
        EXPECT_NEAR(left, 5.0, 1e-5) << "late rank " << late;
        EXPECT_DOUBLE_EQ(left, probe.arrived[static_cast<std::size_t>(r)]);
      } else {
        EXPECT_DOUBLE_EQ(left, forced_at)
            << "late rank " << late << ", rank " << r;
      }
    }
  }
  EXPECT_DOUBLE_EQ(first.left[1], last.left[0]);
}

TEST(Collectives, ForcedAllreduceFoldsThePresentRanks) {
  // Rank 1 never joins the allreduce; approximate progress force-completes
  // it for the other three, and the forced completion still folds their
  // contributions.
  Engine engine({.nprocs = 4});
  engine.enable_approximate_progress();
  const std::vector<std::uint64_t> value{1, 0, 3, 4};
  std::vector<std::vector<std::uint64_t>> got(4);
  engine.run([&](Mpi& mpi) {
    const auto r = static_cast<std::size_t>(mpi.rank());
    if (mpi.rank() == 1) return;
    got[r] = mpi.engine().pmpi_allreduce(mpi.rank(), kCommWorld,
                                         ReduceOp::kSum, {value[r]});
  });
  for (const std::size_t r : {0u, 2u, 3u})
    EXPECT_EQ(got[r], (std::vector<std::uint64_t>{8})) << "rank " << r;
  EXPECT_TRUE(got[1].empty());
  EXPECT_GE(engine.forced_collectives(), 1u);
}

TEST(Collectives, LargeWorldBarrier) {
  Engine engine({.nprocs = 512});
  engine.run([](Mpi& mpi) { mpi.barrier(); });
  EXPECT_EQ(engine.collectives_run(), 1u);
}

}  // namespace
}  // namespace cham::sim
