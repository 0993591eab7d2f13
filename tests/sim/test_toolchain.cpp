// ToolChain: composing tools must preserve the sandwich ordering — pre
// hooks run first-to-last, post hooks last-to-first — and forward stall
// notifications to every link in order.
#include "sim/tool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "sim/shard.hpp"

namespace cham::sim {
namespace {

class RecordingTool : public Tool {
 public:
  RecordingTool(std::string name, std::vector<std::string>* log)
      : name_(std::move(name)), log_(log) {}

  void on_init(Rank rank, Pmpi&) override {
    log_->push_back(name_ + ".init:" + std::to_string(rank));
  }
  void on_pre(Rank, const CallInfo& info, Pmpi&) override {
    if (info.op == Op::kBarrier) log_->push_back(name_ + ".pre");
  }
  void on_post(Rank, const CallInfo& info, Pmpi&) override {
    if (info.op == Op::kBarrier) log_->push_back(name_ + ".post");
  }
  void on_stall(Engine&) override { log_->push_back(name_ + ".stall"); }

 private:
  std::string name_;
  std::vector<std::string>* log_;
};

TEST(ToolChain, PreRunsForwardPostRunsReverse) {
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  RecordingTool b("B", &log);
  ToolChain chain({&a, &b});
  ASSERT_EQ(chain.size(), 2u);

  Engine engine({.nprocs = 1});
  engine.set_tool(&chain);
  engine.run([](Mpi& mpi) { mpi.barrier(); });

  const std::vector<std::string> expected = {
      "A.init:0", "B.init:0",          // init forwards (rank 0)
      "A.pre",    "B.pre",             // pre: first-to-last
      "B.post",   "A.post",            // post: last-to-first (sandwich)
  };
  ASSERT_GE(log.size(), expected.size());
  EXPECT_EQ(std::vector<std::string>(log.begin(),
                                     log.begin() + expected.size()),
            expected);
}

TEST(ToolChain, StallIsForwardedToEveryToolInOrder) {
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  RecordingTool b("B", &log);
  ToolChain chain({&a, &b});

  Engine engine({.nprocs = 2});
  engine.set_tool(&chain);
  EXPECT_THROW(
      engine.run([](Mpi& mpi) { mpi.recv(1 - mpi.rank(), 8, 0); }),
      DeadlockError);

  std::vector<std::string> stalls;
  for (const std::string& entry : log)
    if (entry.find(".stall") != std::string::npos) stalls.push_back(entry);
  EXPECT_EQ(stalls, (std::vector<std::string>{"A.stall", "B.stall"}));
}

class ThrowingTool : public RecordingTool {
 public:
  using RecordingTool::RecordingTool;
  void on_post(Rank rank, const CallInfo& info, Pmpi& pmpi) override {
    RecordingTool::on_post(rank, info, pmpi);
    if (info.op == Op::kBarrier) throw std::runtime_error("mid-chain failure");
  }
};

TEST(ToolChain, PostChainRunsEveryLayerWhenOneThrows) {
  // B (innermost in post order) throws; the outer layer A must still get
  // its post hook — a real PMPI stack unwinds through every wrapper — and
  // the failure must surface to the caller afterwards.
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  ThrowingTool b("B", &log);
  ToolChain chain({&a, &b});

  Engine engine({.nprocs = 1});
  engine.set_tool(&chain);
  EXPECT_THROW(engine.run([](Mpi& mpi) { mpi.barrier(); }),
               std::runtime_error);

  const std::vector<std::string> posts = {"B.post", "A.post"};
  std::vector<std::string> seen;
  for (const std::string& entry : log)
    if (entry.find(".post") != std::string::npos) seen.push_back(entry);
  EXPECT_EQ(seen, posts);
}

TEST(ToolChain, ThreeToolStackKeepsTheSandwich) {
  // The sharded-engine gating runs verifier + tracer + race instrumentation
  // stacked three deep; the sandwich must hold at that depth too.
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  RecordingTool b("B", &log);
  RecordingTool c("C", &log);
  ToolChain chain({&a, &b, &c});

  Engine engine({.nprocs = 1});
  engine.set_tool(&chain);
  engine.run([](Mpi& mpi) { mpi.barrier(); });

  std::vector<std::string> hooks;
  for (const std::string& entry : log)
    if (entry.find(".pre") != std::string::npos ||
        entry.find(".post") != std::string::npos)
      hooks.push_back(entry);
  EXPECT_EQ(hooks, (std::vector<std::string>{"A.pre", "B.pre", "C.pre",
                                             "C.post", "B.post", "A.post"}));
}

TEST(ToolChain, PostChainRethrowsTheFirstOfSeveralFailures) {
  // Two layers fail in the same post chain: every layer still runs, and the
  // *first* failure in post order (the innermost layer, C) is what the
  // caller sees — later failures must not mask it.
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  ThrowingTool b("B", &log);
  ThrowingTool c("C", &log);
  ToolChain chain({&a, &b, &c});

  Engine engine({.nprocs = 1});
  engine.set_tool(&chain);
  bool threw = false;
  try {
    engine.run([](Mpi& mpi) { mpi.barrier(); });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "mid-chain failure");
  }
  EXPECT_TRUE(threw);

  std::vector<std::string> posts;
  for (const std::string& entry : log)
    if (entry.find(".post") != std::string::npos) posts.push_back(entry);
  EXPECT_EQ(posts, (std::vector<std::string>{"C.post", "B.post", "A.post"}));
}

class StallInspectorTool : public Tool {
 public:
  void on_stall(Engine& engine) override {
    // The contract: inspect and record only. Every rank of this deadlock
    // is blocked on a receive that can never match.
    for (Rank r = 0; r < 2; ++r)
      if (engine.blocked_state(r).kind != BlockedState::Kind::kNone)
        ++blocked_ranks;
  }
  int blocked_ranks = 0;
};

TEST(ToolChain, StallHooksCanInspectTheStalledEngine) {
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  StallInspectorTool inspector;
  ToolChain chain({&a, &inspector});

  Engine engine({.nprocs = 2});
  engine.set_tool(&chain);
  EXPECT_THROW(
      engine.run([](Mpi& mpi) { mpi.recv(1 - mpi.rank(), 8, 0); }),
      DeadlockError);
  EXPECT_EQ(inspector.blocked_ranks, 2);
}

TEST(ToolChain, AddAppendsAfterConstruction) {
  std::vector<std::string> log;
  RecordingTool a("A", &log);
  RecordingTool b("B", &log);
  ToolChain chain;
  chain.add(&a);
  chain.add(&b);
  EXPECT_EQ(chain.size(), 2u);

  Engine engine({.nprocs = 1});
  engine.set_tool(&chain);
  engine.run([](Mpi&) {});
  EXPECT_EQ(log.front(), "A.init:0");
}

}  // namespace
}  // namespace cham::sim
