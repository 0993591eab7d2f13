// Property tests for the structural shape hashes behind the compression
// fast path (docs/PERF.md). The invariants the hot loops rely on:
//
//   soundness   equal shapes  =>  equal, nonzero hashes (exact, always)
//   precision   different shapes => different hashes (w.h.p.; a collision
//               costs a wasted deep compare, never a wrong fold/merge)
//   maintenance every library mutation (folding, merging, decode) leaves
//               cached hashes equal to a from-scratch rehash
//   identity    the hashed folder and merge produce the bytes of a fold
//               that deep-compares every window and of the LCS merge
#include <gtest/gtest.h>

#include <functional>

#include "support/rng.hpp"
#include "trace/merge.hpp"
#include "trace/rsd.hpp"
#include "trace/serialize.hpp"

namespace cham::trace {
namespace {

EventRecord random_event(support::Rng& rng) {
  EventRecord ev;
  const std::uint64_t kind = rng.next_below(4);
  ev.op = kind == 0   ? sim::Op::kSend
          : kind == 1 ? sim::Op::kRecv
          : kind == 2 ? sim::Op::kBarrier
                      : sim::Op::kAllreduce;
  ev.stack_sig = 0x4000 + rng.next_below(6);
  if (ev.op == sim::Op::kSend)
    ev.dest = Endpoint{Endpoint::Kind::kRelative,
                       static_cast<std::int32_t>(rng.next_below(5)) - 2};
  if (ev.op == sim::Op::kRecv)
    ev.src = Endpoint{Endpoint::Kind::kRelative,
                      static_cast<std::int32_t>(rng.next_below(5)) - 2};
  ev.bytes = 8u << rng.next_below(5);
  ev.tag = static_cast<std::int32_t>(rng.next_below(3));
  ev.ranks = RankList::single(0);
  ev.delta.add(rng.next_double() * 0.01);
  return ev;
}

/// At least `length` random events, each repeated 1-5 times in a row.
std::vector<EventRecord> random_stream(std::uint64_t seed, int length) {
  support::Rng rng(seed);
  std::vector<EventRecord> out;
  while (static_cast<int>(out.size()) < length) {
    const EventRecord ev = random_event(rng);
    const int run = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < run; ++i) out.push_back(ev);
  }
  return out;
}

std::vector<TraceNode> fold_random_stream(std::uint64_t seed, int length) {
  IntraTrace trace;
  for (EventRecord& ev : random_stream(seed, length))
    trace.append(std::move(ev));
  return trace.take();
}

bool windows_equal(const std::vector<TraceNode>& lhs, std::size_t lhs_at,
                   const std::vector<TraceNode>& rhs, std::size_t rhs_at,
                   std::size_t len) {
  for (std::size_t i = 0; i < len; ++i)
    if (!lhs[lhs_at + i].same_shape(rhs[rhs_at + i])) return false;
  return true;
}

/// The oracle folder: the same two tail rules as fold_tail, shortest window
/// first, with every candidate window deep-compared instead of hashed.
void deep_fold_tail(std::vector<TraceNode>& nodes, std::size_t limit) {
  bool folded = true;
  while (folded) {
    folded = false;
    for (std::size_t len = 1; len <= limit && len <= nodes.size(); ++len) {
      if (nodes.size() >= len + 1) {
        const std::size_t at = nodes.size() - len - 1;
        TraceNode& loop = nodes[at];
        if (loop.is_loop() && loop.body.size() == len &&
            windows_equal(loop.body, 0, nodes, at + 1, len)) {
          for (std::size_t i = 0; i < len; ++i)
            loop.body[i].absorb_stats(nodes[at + 1 + i]);
          ++loop.iters;
          loop.rehash_shallow();
          nodes.resize(at + 1);
          folded = true;
          break;
        }
      }
      if (nodes.size() >= 2 * len) {
        const std::size_t first = nodes.size() - 2 * len;
        const std::size_t second = nodes.size() - len;
        if (windows_equal(nodes, first, nodes, second, len)) {
          std::vector<TraceNode> body;
          for (std::size_t i = 0; i < len; ++i) {
            TraceNode merged = std::move(nodes[first + i]);
            merged.absorb_stats(nodes[second + i]);
            body.push_back(std::move(merged));
          }
          nodes.resize(first);
          nodes.push_back(TraceNode::loop(2, std::move(body)));
          folded = true;
          break;
        }
      }
    }
  }
}

std::vector<TraceNode> deep_fold_random_stream(std::uint64_t seed,
                                               int length) {
  std::vector<TraceNode> nodes;
  for (EventRecord& ev : random_stream(seed, length)) {
    nodes.push_back(TraceNode::leaf(std::move(ev)));
    deep_fold_tail(nodes, 32);  // IntraTrace's default window
  }
  return nodes;
}

/// Recursively check a node's cached hashes against a from-scratch rehash
/// of a private copy.
void expect_hashes_consistent(const TraceNode& node) {
  ASSERT_TRUE(node.hashed());
  TraceNode copy = node;
  copy.rehash_deep();
  EXPECT_EQ(node.shape_hash, copy.shape_hash);
  EXPECT_EQ(node.merge_hash, copy.merge_hash);
  EXPECT_EQ(node.body_seq, copy.body_seq);
  for (const TraceNode& child : node.body) expect_hashes_consistent(child);
}

class ShapeHashSeeds : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ShapeHashSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(ShapeHashSeeds, EventHashEqualIffSameShape) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E37);
  std::vector<EventRecord> events;
  for (int i = 0; i < 64; ++i) events.push_back(random_event(rng));
  for (const EventRecord& a : events) {
    for (const EventRecord& b : events) {
      if (a.same_shape(b)) {
        EXPECT_EQ(a.shape_hash(), b.shape_hash());  // soundness: exact
      } else {
        // Precision: a violation here is a 2^-64-scale collision inside a
        // 64-event pool — report it, it means the hash lost a field.
        EXPECT_NE(a.shape_hash(), b.shape_hash());
      }
      EXPECT_NE(a.shape_hash(), 0u);  // 0 is the "not computed" sentinel
    }
  }
}

TEST_P(ShapeHashSeeds, MergeClassHashIgnoresEndpointsOnly) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x51ED);
  for (int i = 0; i < 64; ++i) {
    EventRecord a = random_event(rng);
    EventRecord b = a;
    b.src = Endpoint::any();
    b.dest = Endpoint{Endpoint::Kind::kRelative, 17};
    // Endpoint changes never move an event out of its merge class...
    EXPECT_EQ(a.merge_class_hash(), b.merge_class_hash());
    // ...but any merge-invariant field does.
    EventRecord c = a;
    c.bytes += 1;
    EXPECT_NE(a.merge_class_hash(), c.merge_class_hash());
    EventRecord d = a;
    d.stack_sig ^= 1;
    EXPECT_NE(a.merge_class_hash(), d.merge_class_hash());
  }
}

TEST_P(ShapeHashSeeds, FoldedTraceKeepsHashesConsistent) {
  const auto nodes =
      fold_random_stream(static_cast<std::uint64_t>(GetParam()), 400);
  for (const TraceNode& node : nodes) expect_hashes_consistent(node);
}

TEST_P(ShapeHashSeeds, LoopBodySeqMatchesPolynomialOfChildren) {
  const auto nodes =
      fold_random_stream(static_cast<std::uint64_t>(GetParam()) * 3, 300);
  std::function<void(const TraceNode&)> check = [&](const TraceNode& node) {
    if (!node.is_loop()) return;
    std::uint64_t seq = 0;
    for (const TraceNode& child : node.body) {
      seq = seq * kShapeSeqBase + child.shape_hash;
      check(child);
    }
    EXPECT_EQ(node.body_seq, seq);
  };
  for (const TraceNode& node : nodes) check(node);
}

TEST_P(ShapeHashSeeds, DecodePreservesShapeHashes) {
  const auto nodes =
      fold_random_stream(static_cast<std::uint64_t>(GetParam()) * 7, 300);
  const auto decoded = decode_trace(encode_trace(nodes));
  ASSERT_EQ(decoded.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(decoded[i].shape_hash, nodes[i].shape_hash);
    EXPECT_EQ(decoded[i].merge_hash, nodes[i].merge_hash);
    expect_hashes_consistent(decoded[i]);
  }
}

TEST_P(ShapeHashSeeds, MergedTraceKeepsHashesConsistent) {
  auto a = fold_random_stream(static_cast<std::uint64_t>(GetParam()) * 11, 250);
  auto b = fold_random_stream(static_cast<std::uint64_t>(GetParam()) * 13, 250);
  substitute_ranks(a, RankList::single(0));
  substitute_ranks(b, RankList::single(1));
  const auto merged = inter_merge(std::move(a), std::move(b));
  for (const TraceNode& node : merged) expect_hashes_consistent(node);
}

TEST_P(ShapeHashSeeds, FastPathProducesByteIdenticalTraces) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 17;

  auto base_a = deep_fold_random_stream(seed, 350);
  auto base_b = deep_fold_random_stream(seed + 1, 350);
  substitute_ranks(base_b, RankList::single(1));
  auto fast_a = fold_random_stream(seed, 350);
  auto fast_b = fold_random_stream(seed + 1, 350);
  substitute_ranks(fast_b, RankList::single(1));
  EXPECT_EQ(encode_trace(fast_a), encode_trace(base_a));
  EXPECT_EQ(encode_trace(fast_b), encode_trace(base_b));

  const auto base_wire =
      encode_trace(lcs_merge(std::move(base_a), std::move(base_b)));
  const auto fast_wire =
      encode_trace(inter_merge(std::move(fast_a), std::move(fast_b)));
  EXPECT_EQ(base_wire, fast_wire);
}

TEST(ShapeHash, AbsorbStatsKeepsShape) {
  // Histograms and ranklists are not shape: absorbing stats must not
  // disturb any cached hash.
  support::Rng rng(0xABCD);
  TraceNode a = TraceNode::leaf(random_event(rng));
  TraceNode b = a;
  b.event.delta.add(0.5);
  const std::uint64_t before = a.shape_hash;
  a.absorb_stats(b);
  EXPECT_EQ(a.shape_hash, before);
  expect_hashes_consistent(a);
}

TEST(ShapeHash, SubstituteRanksKeepsShapeHashes) {
  auto nodes = fold_random_stream(0x5EED, 300);
  std::vector<std::uint64_t> before;
  for (const TraceNode& node : nodes) before.push_back(node.shape_hash);
  substitute_ranks(nodes, RankList::single(3));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].shape_hash, before[i]);
    expect_hashes_consistent(nodes[i]);
  }
}

}  // namespace
}  // namespace cham::trace
