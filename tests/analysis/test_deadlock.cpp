// Deadlock detection: stalled runs must terminate with a DeadlockError and
// the verifier must name the wait-for cycle, the blocked ranks and their
// symbolic call paths — instead of hanging forever.
#include <gtest/gtest.h>

#include <string>

#include "analysis/verifier.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "sim/shard.hpp"
#include "trace/callsite.hpp"

namespace cham::analysis {
namespace {

TEST(Deadlock, HeadToHeadReceivesReportCycleWithBacktraces) {
  // Both ranks receive before sending (the classic unsafe ordering; with
  // the engine's eager sends a literal send/send cannot deadlock, so the
  // deadlock manifests on the receive side).
  const int p = 2;
  sim::Engine engine({.nprocs = p});
  trace::CallSiteRegistry stacks(p);
  VerifierTool verifier(p, &stacks);
  engine.set_tool(&verifier);
  EXPECT_THROW(engine.run([&](sim::Mpi& mpi) {
    trace::CallScope scope(stacks.stack(mpi.rank()), "app.exchange");
    const sim::Rank peer = 1 - mpi.rank();
    mpi.recv(peer, 64, 7);
    mpi.send(peer, 64, 7);
  }),
               sim::DeadlockError);

  ASSERT_EQ(verifier.sink().count("deadlock.cycle"), 1u);
  const Diagnostic* d = verifier.sink().find("deadlock.cycle");
  ASSERT_NE(d, nullptr);
  // The report names the cycle, both blocked ranks, the blocking calls and
  // the branded call path.
  EXPECT_NE(d->message.find("wait-for cycle"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("rank 0"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("rank 1"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("MPI_Recv"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("app.exchange"), std::string::npos) << d->message;
}

TEST(Deadlock, ThreeRankReceiveChainReportsFullCycle) {
  const int p = 3;
  sim::Engine engine({.nprocs = p});
  trace::CallSiteRegistry stacks(p);
  VerifierTool verifier(p, &stacks);
  engine.set_tool(&verifier);
  EXPECT_THROW(engine.run([&](sim::Mpi& mpi) {
    trace::CallScope scope(stacks.stack(mpi.rank()), "app.chain");
    // 0 waits on 2, 1 waits on 0, 2 waits on 1: a three-cycle.
    const sim::Rank upstream = (mpi.rank() + p - 1) % p;
    mpi.recv(upstream, 32, 1);
  }),
               sim::DeadlockError);
  const Diagnostic* d = verifier.sink().find("deadlock.cycle");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("->"), std::string::npos);
  for (const char* needle : {"rank 0", "rank 1", "rank 2"})
    EXPECT_NE(d->message.find(needle), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("3/3 ranks blocked"), std::string::npos)
      << d->message;
}

TEST(Deadlock, CrossCommunicatorCollectiveMismatchIsReported) {
  // Rank 0 enters the world barrier, rank 1 enters the marker barrier:
  // two half-full rendezvous on different communicators, no progress.
  const int p = 2;
  sim::Engine engine({.nprocs = p});
  trace::CallSiteRegistry stacks(p);
  VerifierTool verifier(p, &stacks);
  engine.set_tool(&verifier);
  EXPECT_THROW(engine.run([&](sim::Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.barrier();
    } else {
      mpi.marker();
    }
  }),
               sim::DeadlockError);
  const Diagnostic* d = verifier.sink().find("deadlock.cycle");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("MPI_Barrier"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("rank 0"), std::string::npos);
  EXPECT_NE(d->message.find("rank 1"), std::string::npos);
}

TEST(Deadlock, EngineWithoutToolStillTerminatesWithReport) {
  // The engine-level safety net: no tool installed, the stall still turns
  // into a DeadlockError naming the blocked fibers.
  sim::Engine engine({.nprocs = 2});
  try {
    engine.run([&](sim::Mpi& mpi) { mpi.recv(1 - mpi.rank(), 8, 0); });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("none runnable"), std::string::npos);
  }
}

/// The line of a DeadlockError report that lists `rank` ("" if none).
std::string report_line(const std::string& report, int rank) {
  const std::string head = "  rank " + std::to_string(rank) + ": ";
  const std::size_t at = report.find(head);
  if (at == std::string::npos) return "";
  return report.substr(at, report.find('\n', at) - at);
}

TEST(Deadlock, EngineReportDescribesEachBlockedRank) {
  // No tool: the scheduler's own report must say what each rank waits for.
  // Rank 0 receives (source 1, tag 5) a message rank 1 never sends; rank 1
  // waits alone in the world barrier.
  sim::Engine engine({.nprocs = 2});
  try {
    engine.run([&](sim::Mpi& mpi) {
      if (mpi.rank() == 0) {
        mpi.recv(1, 8, 5);
      } else {
        mpi.barrier();
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    const std::string recv = report_line(what, 0);
    EXPECT_NE(recv.find("MPI_Wait"), std::string::npos) << what;
    EXPECT_NE(recv.find("src=1"), std::string::npos) << what;
    EXPECT_NE(recv.find("tag=5"), std::string::npos) << what;
    const std::string barrier = report_line(what, 1);
    EXPECT_NE(barrier.find("MPI_Barrier"), std::string::npos) << what;
    EXPECT_NE(barrier.find("(1/2 arrived)"), std::string::npos) << what;
  }
}

TEST(Deadlock, FibersUnwindSoHeapObjectsAreReleased) {
  // Cancellation must unwind blocked fibers' stacks: objects owning heap
  // memory (payload vectors here) would otherwise leak — caught by the
  // ASan test-suite run the build presets add.
  sim::Engine engine({.nprocs = 2});
  auto destroyed = std::make_shared<int>(0);
  struct Guard {
    std::shared_ptr<int> counter;
    ~Guard() { ++*counter; }
  };
  EXPECT_THROW(engine.run([&](sim::Mpi& mpi) {
    Guard guard{destroyed};
    std::vector<std::uint8_t> payload(4096, 0xAB);
    mpi.recv(1 - mpi.rank(), payload.size(), 0);
    (void)payload;
  }),
               sim::DeadlockError);
  EXPECT_EQ(*destroyed, 2);
}

TEST(Deadlock, CleanRunReportsNothing) {
  const int p = 4;
  sim::Engine engine({.nprocs = p});
  VerifierTool verifier(p);
  engine.set_tool(&verifier);
  engine.run([&](sim::Mpi& mpi) {
    const sim::Rank next = (mpi.rank() + 1) % mpi.size();
    const sim::Rank prev = (mpi.rank() + mpi.size() - 1) % mpi.size();
    const sim::Request req = mpi.irecv(prev, 64, 2);
    mpi.send(next, 64, 2);
    mpi.wait(req);
    mpi.barrier();
  });
  EXPECT_EQ(verifier.sink().count("deadlock.cycle"), 0u);
  EXPECT_EQ(verifier.sink().count("deadlock.stall"), 0u);
  EXPECT_TRUE(verifier.clean());
}

}  // namespace
}  // namespace cham::analysis
