#include "trace/rsd.hpp"

#include <gtest/gtest.h>

#include "trace/callsite.hpp"

namespace cham::trace {
namespace {

EventRecord ev(sim::Op op, std::uint64_t stack, double delta = 0.0,
               std::int32_t dest_off = 0) {
  EventRecord record;
  record.op = op;
  record.stack_sig = stack;
  if (op == sim::Op::kSend) record.dest = Endpoint{Endpoint::Kind::kRelative, dest_off};
  if (op == sim::Op::kRecv) record.src = Endpoint{Endpoint::Kind::kRelative, -dest_off};
  record.bytes = 64;
  record.ranks = RankList::single(0);
  if (delta > 0) record.delta.add(delta);
  return record;
}

constexpr std::uint64_t kSendSig = 0x1111;
constexpr std::uint64_t kRecvSig = 0x2222;
constexpr std::uint64_t kBarrierSig = 0x3333;

TEST(Rsd, SingleEventStaysLeaf) {
  IntraTrace trace;
  trace.append(ev(sim::Op::kSend, kSendSig));
  ASSERT_EQ(trace.nodes().size(), 1u);
  EXPECT_FALSE(trace.nodes()[0].is_loop());
}

TEST(Rsd, PaperExampleFoldsToPrsd) {
  // for 1000 { for 100 { send; recv } barrier }  (background section example)
  IntraTrace trace;
  const int outer = 50, inner = 20;  // scaled-down but same structure
  for (int i = 0; i < outer; ++i) {
    for (int k = 0; k < inner; ++k) {
      trace.append(ev(sim::Op::kSend, kSendSig, 0.001, 1));
      trace.append(ev(sim::Op::kRecv, kRecvSig, 0.001, 1));
    }
    trace.append(ev(sim::Op::kBarrier, kBarrierSig, 0.002));
  }
  ASSERT_EQ(trace.nodes().size(), 1u);
  const TraceNode& top = trace.nodes()[0];
  ASSERT_TRUE(top.is_loop());
  EXPECT_EQ(top.iters, static_cast<std::uint64_t>(outer));
  ASSERT_EQ(top.body.size(), 2u);
  const TraceNode& inner_loop = top.body[0];
  ASSERT_TRUE(inner_loop.is_loop());
  EXPECT_EQ(inner_loop.iters, static_cast<std::uint64_t>(inner));
  ASSERT_EQ(inner_loop.body.size(), 2u);
  EXPECT_EQ(inner_loop.body[0].event.op, sim::Op::kSend);
  EXPECT_EQ(inner_loop.body[1].event.op, sim::Op::kRecv);
  EXPECT_EQ(top.body[1].event.op, sim::Op::kBarrier);
}

TEST(Rsd, CompressedSizeConstantInIterationCount) {
  IntraTrace a, b;
  for (int i = 0; i < 10; ++i) a.append(ev(sim::Op::kSend, kSendSig));
  for (int i = 0; i < 10000; ++i) b.append(ev(sim::Op::kSend, kSendSig));
  EXPECT_EQ(a.nodes().size(), b.nodes().size());
  EXPECT_EQ(a.compressed_events(), b.compressed_events());
  EXPECT_EQ(b.compressed_events(), 1u);
  EXPECT_EQ(b.footprint_bytes(), a.footprint_bytes());
}

TEST(Rsd, ExpandedCountMatchesAppends) {
  IntraTrace trace;
  const int outer = 17, inner = 5;
  std::uint64_t appended = 0;
  for (int i = 0; i < outer; ++i) {
    for (int k = 0; k < inner; ++k) {
      trace.append(ev(sim::Op::kSend, kSendSig));
      ++appended;
      trace.append(ev(sim::Op::kRecv, kRecvSig));
      ++appended;
    }
    trace.append(ev(sim::Op::kBarrier, kBarrierSig));
    ++appended;
  }
  std::uint64_t expanded = 0;
  for (const auto& node : trace.nodes()) expanded += node.expanded_count();
  EXPECT_EQ(expanded, appended);
}

TEST(Rsd, DeltaHistogramsAccumulateAcrossFolds) {
  IntraTrace trace;
  for (int i = 0; i < 100; ++i)
    trace.append(ev(sim::Op::kSend, kSendSig, 0.5));
  ASSERT_EQ(trace.nodes().size(), 1u);
  const TraceNode& loop = trace.nodes()[0];
  ASSERT_TRUE(loop.is_loop());
  EXPECT_EQ(loop.body[0].event.delta.count(), 100u);
  EXPECT_DOUBLE_EQ(loop.body[0].event.delta.mean(), 0.5);
}

TEST(Rsd, DifferentStackSignaturesDoNotFold) {
  // Sends from two different call sites are distinct events.
  IntraTrace trace;
  for (int i = 0; i < 10; ++i) {
    trace.append(ev(sim::Op::kSend, 0xAAA));
    trace.append(ev(sim::Op::kSend, 0xBBB));
  }
  ASSERT_EQ(trace.nodes().size(), 1u);
  const TraceNode& loop = trace.nodes()[0];
  ASSERT_TRUE(loop.is_loop());
  EXPECT_EQ(loop.iters, 10u);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[0].event.stack_sig, 0xAAAu);
  EXPECT_EQ(loop.body[1].event.stack_sig, 0xBBBu);
}

TEST(Rsd, DifferentEndpointsDoNotFold) {
  IntraTrace trace;
  trace.append(ev(sim::Op::kSend, kSendSig, 0, +1));
  trace.append(ev(sim::Op::kSend, kSendSig, 0, -1));
  EXPECT_EQ(trace.nodes().size(), 2u);
}

TEST(Rsd, DifferentByteCountsDoNotFold) {
  IntraTrace trace;
  EventRecord a = ev(sim::Op::kSend, kSendSig);
  EventRecord b = ev(sim::Op::kSend, kSendSig);
  b.bytes = 128;
  trace.append(a);
  trace.append(b);
  EXPECT_EQ(trace.nodes().size(), 2u);
}

TEST(Rsd, PhaseChangeBreaksLoop) {
  IntraTrace trace;
  for (int i = 0; i < 20; ++i) trace.append(ev(sim::Op::kSend, kSendSig));
  trace.append(ev(sim::Op::kBarrier, kBarrierSig));
  for (int i = 0; i < 20; ++i) trace.append(ev(sim::Op::kRecv, kRecvSig));
  ASSERT_EQ(trace.nodes().size(), 3u);
  EXPECT_TRUE(trace.nodes()[0].is_loop());
  EXPECT_FALSE(trace.nodes()[1].is_loop());
  EXPECT_TRUE(trace.nodes()[2].is_loop());
}

TEST(Rsd, TakeMovesAndClears) {
  IntraTrace trace;
  trace.append(ev(sim::Op::kSend, kSendSig));
  auto nodes = trace.take();
  EXPECT_EQ(nodes.size(), 1u);
  EXPECT_TRUE(trace.empty());
}

TEST(Rsd, TripleNesting) {
  // for 4 { for 3 { for 5 { send } recv } barrier }
  IntraTrace trace;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 5; ++c) trace.append(ev(sim::Op::kSend, kSendSig));
      trace.append(ev(sim::Op::kRecv, kRecvSig));
    }
    trace.append(ev(sim::Op::kBarrier, kBarrierSig));
  }
  ASSERT_EQ(trace.nodes().size(), 1u);
  const TraceNode& outer = trace.nodes()[0];
  EXPECT_EQ(outer.iters, 4u);
  ASSERT_EQ(outer.body.size(), 2u);
  const TraceNode& mid = outer.body[0];
  ASSERT_TRUE(mid.is_loop());
  EXPECT_EQ(mid.iters, 3u);
  const TraceNode& innermost = mid.body[0];
  ASSERT_TRUE(innermost.is_loop());
  EXPECT_EQ(innermost.iters, 5u);
}

TEST(Rsd, NonPositiveMaxWindowDisablesFolding) {
  // Regression: a negative max_window used to be static_cast into a huge
  // unsigned window limit ("fold everything") instead of "fold nothing".
  std::vector<TraceNode> nodes;
  for (int i = 0; i < 8; ++i)
    nodes.push_back(TraceNode::leaf(ev(sim::Op::kSend, kSendSig)));

  std::vector<TraceNode> zero = nodes;
  EXPECT_EQ(fold_tail(zero, 0), 0);
  EXPECT_EQ(zero.size(), 8u);

  std::vector<TraceNode> negative = nodes;
  EXPECT_EQ(fold_tail(negative, -3), 0);
  EXPECT_EQ(negative.size(), 8u);
}

TEST(Rsd, FoldTailIdempotentOnCompressed) {
  IntraTrace trace;
  for (int i = 0; i < 30; ++i) trace.append(ev(sim::Op::kSend, kSendSig));
  auto nodes = trace.take();
  EXPECT_EQ(fold_tail(nodes, 32), 0);  // already fully folded
}

TEST(CallStack, SignatureReflectsCallSequence) {
  CallStack stack;
  const std::uint64_t empty = stack.signature();
  stack.push(site_id("main"));
  const std::uint64_t in_main = stack.signature();
  stack.push(site_id("solver"));
  const std::uint64_t in_solver = stack.signature();
  EXPECT_NE(empty, in_main);
  EXPECT_NE(in_main, in_solver);
  stack.pop();
  EXPECT_EQ(stack.signature(), in_main);
  stack.pop();
  EXPECT_EQ(stack.signature(), empty);
}

TEST(CallStack, SameSequenceSameSignatureAcrossRanks) {
  CallSiteRegistry registry(2);
  for (int r = 0; r < 2; ++r) {
    registry.stack(r).push(site_id("main"));
    registry.stack(r).push(site_id("exchange"));
  }
  EXPECT_EQ(registry.stack(0).signature(), registry.stack(1).signature());
}

TEST(CallStack, OrderMatters) {
  CallStack a, b;
  a.push(1);
  a.push(2);
  b.push(2);
  b.push(1);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(CallStack, ScopeIsRaii) {
  CallStack stack;
  const auto base = stack.signature();
  {
    CallScope scope(stack, site_id("phase1"));
    EXPECT_NE(stack.signature(), base);
  }
  EXPECT_EQ(stack.signature(), base);
}

}  // namespace
}  // namespace cham::trace
