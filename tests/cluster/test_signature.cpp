#include "cluster/signature.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace cham::cluster {
namespace {

trace::EventRecord ev(std::uint64_t stack, std::int32_t dest_off = 1,
                      bool with_src = false) {
  trace::EventRecord record;
  record.op = sim::Op::kSend;
  record.stack_sig = stack;
  record.dest = trace::Endpoint{trace::Endpoint::Kind::kRelative, dest_off};
  if (with_src)
    record.src = trace::Endpoint{trace::Endpoint::Kind::kRelative, -dest_off};
  return record;
}

TEST(IntervalSignature, EmptyIsZeroCallpath) {
  IntervalSignature sig;
  EXPECT_TRUE(sig.empty());
  EXPECT_EQ(sig.current().callpath, 0u);
}

TEST(IntervalSignature, RepeatedEventsCountOnce) {
  // Call-Path is over PRSD-compressed (distinct) events: a loop of 1000
  // identical sends contributes one term — and crucially cannot XOR-cancel.
  IntervalSignature once, thousand;
  once.observe(ev(0xAB));
  for (int i = 0; i < 1000; ++i) thousand.observe(ev(0xAB));
  EXPECT_EQ(once.current().callpath, thousand.current().callpath);
  EXPECT_EQ(thousand.distinct_events(), 1u);
}

TEST(IntervalSignature, OrderSensitiveViaSequenceMultiplier) {
  IntervalSignature ab, ba;
  ab.observe(ev(0xA));
  ab.observe(ev(0xB));
  ba.observe(ev(0xB));
  ba.observe(ev(0xA));
  // 1*A ^ 2*B != 1*B ^ 2*A in general.
  EXPECT_NE(ab.current().callpath, ba.current().callpath);
}

TEST(IntervalSignature, PermutationsCannotCancel) {
  // With plain XOR, {A,B} vs {B,A} would be identical and {A,A} would
  // vanish; the (seq mod 10)+1 multiplier prevents both degeneracies.
  IntervalSignature sig;
  sig.observe(ev(0xA));
  sig.observe(ev(0xB));
  EXPECT_NE(sig.current().callpath, 0u);
}

TEST(IntervalSignature, IdenticalStreamsAgreeAcrossRanks) {
  // The collective vote only works if ranks with the same behaviour compute
  // bit-identical signatures.
  IntervalSignature a, b;
  for (int i = 0; i < 50; ++i) {
    a.observe(ev(0x1, +1, true));
    a.observe(ev(0x2, -1));
    b.observe(ev(0x1, +1, true));
    b.observe(ev(0x2, -1));
  }
  EXPECT_EQ(a.current(), b.current());
}

TEST(IntervalSignature, SrcDestReflectEndpointGeometry) {
  // A rank that sends +1 and a rank that sends -1 must differ in DEST.
  IntervalSignature right, left;
  right.observe(ev(0x1, +1));
  left.observe(ev(0x1, -1));
  EXPECT_EQ(right.current().callpath, left.current().callpath);
  EXPECT_NE(right.current().dest, left.current().dest);
}

TEST(IntervalSignature, ResetStartsFresh) {
  IntervalSignature sig;
  sig.observe(ev(0x9));
  const auto before = sig.current();
  sig.reset();
  EXPECT_TRUE(sig.empty());
  sig.observe(ev(0x9));
  EXPECT_EQ(sig.current(), before);  // same interval contents -> same triple
}

TEST(IntervalSignature, NewCallSiteChangesCallpath) {
  IntervalSignature sig;
  sig.observe(ev(0x1));
  const auto phase1 = sig.current().callpath;
  sig.observe(ev(0x2));
  EXPECT_NE(sig.current().callpath, phase1);
}

/// The interval signature as it was built on a hash set: the reference the
/// allocation-free scan must reproduce exactly.
class HashSetSignature {
 public:
  void observe(const trace::EventRecord& event) {
    if (seen_.insert(event.stack_sig).second) order_.push_back(event.stack_sig);
    const std::uint64_t size_term = event.bytes / 64;
    if (event.src.kind != trace::Endpoint::Kind::kNone)
      src_mean_.add(event.src.feature() + size_term);
    if (event.dest.kind != trace::Endpoint::Kind::kNone)
      dest_mean_.add(event.dest.feature() + size_term);
  }
  [[nodiscard]] RankSignature current() const {
    RankSignature sig;
    for (std::size_t i = 0; i < order_.size(); ++i)
      sig.callpath ^= order_[i] * static_cast<std::uint64_t>((i % 10) + 1);
    sig.src = src_mean_.mean();
    sig.dest = dest_mean_.mean();
    return sig;
  }
  [[nodiscard]] std::size_t distinct_events() const { return order_.size(); }
  void reset() {
    order_.clear();
    seen_.clear();
    src_mean_ = {};
    dest_mean_ = {};
  }

 private:
  std::vector<std::uint64_t> order_;
  std::unordered_set<std::uint64_t> seen_;
  support::RunningMean src_mean_;
  support::RunningMean dest_mean_;
};

TEST(IntervalSignature, MatchesHashSetReferenceOnRandomStreams) {
  // Streams drawn from a small pool of call paths (so paths repeat, in and
  // out of order), with random endpoints, sizes and marker resets.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    support::Rng rng(seed);
    std::vector<std::uint64_t> pool(1 + rng.next_below(16));
    for (std::uint64_t& sig : pool) sig = rng.next_u64();
    IntervalSignature fast;
    HashSetSignature reference;
    for (int i = 0; i < 2000; ++i) {
      if (rng.next_below(50) == 0) {
        fast.reset();
        reference.reset();
      }
      trace::EventRecord event;
      event.stack_sig = pool[rng.next_below(pool.size())];
      event.bytes = rng.next_below(1 << 16);
      const auto offset = static_cast<std::int32_t>(rng.next_below(64)) - 32;
      if (rng.next_below(2) == 0)
        event.src = trace::Endpoint{trace::Endpoint::Kind::kRelative, offset};
      if (rng.next_below(2) == 0)
        event.dest = trace::Endpoint{trace::Endpoint::Kind::kRelative, -offset};
      fast.observe(event);
      reference.observe(event);
      ASSERT_EQ(fast.current(), reference.current())
          << "seed " << seed << ", event " << i;
      ASSERT_EQ(fast.distinct_events(), reference.distinct_events());
    }
  }
}

TEST(SignatureDistance, ZeroForIdentical) {
  RankSignature a{1, 100, 200};
  EXPECT_EQ(signature_distance(a, a), 0u);
}

TEST(SignatureDistance, SymmetricL1) {
  RankSignature a{1, 100, 200};
  RankSignature b{1, 150, 180};
  EXPECT_EQ(signature_distance(a, b), 70u);
  EXPECT_EQ(signature_distance(b, a), 70u);
}

TEST(SignatureDistance, SaturatesInsteadOfWrapping) {
  RankSignature a{0, 0, 0};
  RankSignature b{0, ~0ull, ~0ull};
  EXPECT_EQ(signature_distance(a, b), ~0ull);
}

}  // namespace
}  // namespace cham::cluster
