// ChamScale property suite: the interned ranklists must be
// indistinguishable from the dense seed representation on every observable
// surface — members, set algebra, factored sections, wire bytes — and the
// intern table must keep its canonicalization invariants (one entry per
// member set, equality by pointer, memoized unions). The dense oracle is a
// test-local copy of the seed's factorization of a sorted member vector.
//
// Randomized properties run a fixed number of seeded trials; a failing
// trial is greedily minimized before reporting, so the failure message
// carries the smallest member set (plus the generator seed) that still
// breaks the property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "trace/ranklist.hpp"
#include "trace/serialize.hpp"

#ifndef CHAM_TESTS_DATA_DIR
#error "CHAM_TESTS_DATA_DIR must point at tests/data"
#endif

namespace cham::trace {
namespace {

constexpr int kTrials = 200;

/// Random member set with the shapes the protocol produces: arithmetic
/// progressions (rows/columns), dense blocks, plus uniform noise, in a
/// rank space large enough to force multi-run factorizations.
std::vector<sim::Rank> random_set(support::Rng& rng) {
  std::vector<sim::Rank> out;
  const int nprogs = static_cast<int>(rng.next_below(4));
  for (int p = 0; p < nprogs; ++p) {
    const auto start = static_cast<sim::Rank>(rng.next_below(300));
    const int stride = 1 + static_cast<int>(rng.next_below(8));
    const int len = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < len; ++i) out.push_back(start + i * stride);
  }
  const int noise = static_cast<int>(rng.next_below(10));
  for (int i = 0; i < noise; ++i)
    out.push_back(static_cast<sim::Rank>(rng.next_below(400)));
  return out;
}

std::vector<sim::Rank> sorted_unique(std::vector<sim::Rank> ranks) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

std::string set_to_string(const std::vector<sim::Rank>& ranks) {
  std::string out = "{";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(ranks[i]);
  }
  return out + "}";
}

/// Greedy one-pass shrinker: drop each member in turn, keeping the drop
/// whenever the property still fails, until no single removal preserves
/// the failure. The result is 1-minimal — small enough to debug by eye.
std::vector<sim::Rank> minimize(
    std::vector<sim::Rank> ranks,
    const std::function<bool(const std::vector<sim::Rank>&)>& fails) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      std::vector<sim::Rank> candidate = ranks;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(candidate)) {
        ranks = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return ranks;
}

/// Run `fails` over seeded random sets; on the first failure, minimize and
/// report the smallest reproducing set.
void check_property(
    const char* what,
    const std::function<bool(const std::vector<sim::Rank>&)>& fails) {
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    support::Rng rng(seed);
    std::vector<sim::Rank> ranks = random_set(rng);
    if (!fails(ranks)) continue;
    const std::vector<sim::Rank> minimal = minimize(ranks, fails);
    FAIL() << what << " failed at seed " << seed
           << "; minimized input: " << set_to_string(minimal);
  }
}

std::vector<std::uint8_t> wire_bytes(const RankList& list) {
  ByteWriter w;
  encode_ranklist(w, list);
  return w.take();
}

// ---------------------------------------------------------------------------
// The dense oracle: the seed representation's greedy factorization of a
// sorted, unique member vector, and the section encoding it serialized.
// ---------------------------------------------------------------------------

/// Longest arithmetic progression starting at index `from` in the sorted,
/// unique member vector. Returns (length, stride); length >= 1.
std::pair<int, int> dense_run_at(const std::vector<sim::Rank>& m,
                                 std::size_t from) {
  if (from + 1 >= m.size()) return {1, 1};
  const int stride = m[from + 1] - m[from];
  int len = 2;
  while (from + static_cast<std::size_t>(len) < m.size() &&
         m[from + static_cast<std::size_t>(len)] -
                 m[from + static_cast<std::size_t>(len) - 1] ==
             stride) {
    ++len;
  }
  return {len, stride};
}

/// Pass 1 factors into maximal 1-D progressions; pass 2 groups consecutive
/// runs with identical shape and equally spaced starts into 2-D sections.
std::vector<RankSection> dense_sections(const std::vector<sim::Rank>& m) {
  std::vector<RankSection> runs;
  for (std::size_t i = 0; i < m.size();) {
    const auto [len, stride] = dense_run_at(m, i);
    RankSection sec;
    sec.start = m[i];
    if (len > 1) sec.dims.push_back({len, stride});
    runs.push_back(std::move(sec));
    i += static_cast<std::size_t>(len);
  }
  std::vector<RankSection> out;
  std::size_t r = 0;
  while (r < runs.size()) {
    std::size_t g = r + 1;
    if (g < runs.size() && runs[g].dims == runs[r].dims) {
      const int outer = runs[g].start - runs[r].start;
      while (g + 1 < runs.size() && runs[g + 1].dims == runs[r].dims &&
             runs[g + 1].start - runs[g].start == outer) {
        ++g;
      }
      const int group = static_cast<int>(g - r + 1);
      if (group >= 2 && outer > 0) {
        RankSection sec;
        sec.start = runs[r].start;
        sec.dims.push_back({group, outer});
        for (const auto& d : runs[r].dims) sec.dims.push_back(d);
        out.push_back(std::move(sec));
        r = g + 1;
        continue;
      }
    }
    out.push_back(runs[r]);
    ++r;
  }
  return out;
}

std::vector<std::uint8_t> dense_wire_bytes(
    const std::vector<RankSection>& sections) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& sec : sections) {
    w.i32(sec.start);
    w.u16(static_cast<std::uint16_t>(sec.dims.size()));
    for (const auto& [iters, stride] : sec.dims) {
      w.i32(iters);
      w.i32(stride);
    }
  }
  return w.take();
}

std::size_t dense_footprint(const std::vector<RankSection>& sections) {
  std::size_t bytes = 4;
  for (const auto& sec : sections) bytes += 6 + 8 * sec.dims.size();
  return bytes;
}

// ---------------------------------------------------------------------------
// Dense-oracle equivalence: everything observable about a list must match
// the dense representation of the same member set.
// ---------------------------------------------------------------------------

TEST(RankListProp, MembersMatchDenseOracle) {
  check_property("members == dense members", [](const auto& ranks) {
    const std::vector<sim::Rank> dense = sorted_unique(ranks);
    const RankList list = RankList::from_ranks(ranks);
    return list.members() != dense || list.count() != dense.size();
  });
}

TEST(RankListProp, SectionsMatchDenseOracle) {
  check_property("sections == dense sections", [](const auto& ranks) {
    return RankList::from_ranks(ranks).sections() !=
           dense_sections(sorted_unique(ranks));
  });
}

TEST(RankListProp, WireBytesMatchDenseOracle) {
  check_property("wire bytes == dense wire bytes", [](const auto& ranks) {
    return wire_bytes(RankList::from_ranks(ranks)) !=
           dense_wire_bytes(dense_sections(sorted_unique(ranks)));
  });
}

TEST(RankListProp, FootprintMatchesDenseOracle) {
  check_property("footprint == dense footprint", [](const auto& ranks) {
    return RankList::from_ranks(ranks).footprint_bytes() !=
           dense_footprint(dense_sections(sorted_unique(ranks)));
  });
}

// ---------------------------------------------------------------------------
// Set-algebra laws against a std::set<int> oracle.
// ---------------------------------------------------------------------------

TEST(RankListProp, MergeMatchesSetUnionOracle) {
  check_property("merge == set union", [](const auto& ranks) {
    support::Rng rng(ranks.empty() ? 7u : static_cast<std::uint64_t>(
                                              ranks.front() + 11));
    const std::vector<sim::Rank> other = random_set(rng);
    std::set<sim::Rank> oracle(ranks.begin(), ranks.end());
    oracle.insert(other.begin(), other.end());
    RankList a = RankList::from_ranks(ranks);
    a.merge(RankList::from_ranks(other));
    return a.members() !=
           std::vector<sim::Rank>(oracle.begin(), oracle.end());
  });
}

TEST(RankListProp, IntersectMatchesSetOracle) {
  check_property("intersect == set intersection", [](const auto& ranks) {
    support::Rng rng(ranks.empty() ? 13u : static_cast<std::uint64_t>(
                                               ranks.front() + 29));
    const std::vector<sim::Rank> other = random_set(rng);
    const std::set<sim::Rank> left(ranks.begin(), ranks.end());
    std::vector<sim::Rank> oracle;
    for (const sim::Rank r : sorted_unique(other))
      if (left.count(r) != 0) oracle.push_back(r);
    const RankList meet = RankList::intersect(RankList::from_ranks(ranks),
                                              RankList::from_ranks(other));
    return meet.members() != oracle;
  });
}

TEST(RankListProp, ContainsMatchesSetOracle) {
  check_property("contains == set membership", [](const auto& ranks) {
    const std::set<sim::Rank> oracle(ranks.begin(), ranks.end());
    const RankList list = RankList::from_ranks(ranks);
    for (sim::Rank r = -2; r < 420; ++r)
      if (list.contains(r) != (oracle.count(r) != 0)) return true;
    return false;
  });
}

TEST(RankListProp, MergeChainsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Rng rng(seed * 97);
    RankList acc;
    std::set<sim::Rank> oracle;
    for (int step = 0; step < 8; ++step) {
      const std::vector<sim::Rank> next = random_set(rng);
      oracle.insert(next.begin(), next.end());
      acc.merge(RankList::from_ranks(next));
      ASSERT_EQ(acc.members(),
                std::vector<sim::Rank>(oracle.begin(), oracle.end()))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(acc.count(), oracle.size());
    }
  }
}

TEST(RankListProp, EmptyAndSelfIdentities) {
  RankList a = RankList::from_ranks({3, 7, 11});
  const std::vector<sim::Rank> before = a.members();
  a.merge(a);
  EXPECT_EQ(a.members(), before);
  a.merge(RankList{});
  EXPECT_EQ(a.members(), before);
  RankList empty;
  empty.merge(a);
  EXPECT_EQ(empty.members(), before);
  EXPECT_EQ(RankList::intersect(a, a).members(), before);
  EXPECT_TRUE(RankList::intersect(a, RankList{}).empty());
}

// ---------------------------------------------------------------------------
// Member iteration.
// ---------------------------------------------------------------------------

TEST(RankListProp, ForEachMemberVisitsAscendingExactlyOnce) {
  check_property("for_each_member == members()", [](const auto& ranks) {
    const RankList list = RankList::from_ranks(ranks);
    std::vector<sim::Rank> visited;
    list.for_each_member([&](sim::Rank r) { visited.push_back(r); });
    return visited != sorted_unique(ranks);
  });
}

TEST(RankListProp, ForEachMemberEarlyExitStops) {
  const RankList list = RankList::from_ranks({0, 4, 8, 12, 16});
  std::vector<sim::Rank> visited;
  list.for_each_member([&](sim::Rank r) {
    visited.push_back(r);
    return r < 8;  // false at 8 stops the walk
  });
  EXPECT_EQ(visited, (std::vector<sim::Rank>{0, 4, 8}));
}

// ---------------------------------------------------------------------------
// Intern-table canonicalization invariants.
// ---------------------------------------------------------------------------

TEST(RankListIntern, SameSetSharesOneEntry) {
  check_property("same set -> same intern id", [](const auto& ranks) {
    std::vector<sim::Rank> reversed(ranks.rbegin(), ranks.rend());
    const RankList a = RankList::from_ranks(ranks);
    const RankList b = RankList::from_ranks(reversed);
    if (ranks.empty()) return a.intern_id() != nullptr || a.intern_id() != b.intern_id();
    return a.intern_id() == nullptr || a.intern_id() != b.intern_id();
  });
}

TEST(RankListIntern, DistinctSetsGetDistinctEntries) {
  check_property("distinct sets -> distinct intern ids",
                 [](const auto& ranks) {
                   if (ranks.empty()) return false;
                   std::vector<sim::Rank> other = sorted_unique(ranks);
                   other.push_back(other.back() + 1);
                   const RankList a = RankList::from_ranks(ranks);
                   const RankList b = RankList::from_ranks(other);
                   return a.intern_id() == b.intern_id();
                 });
}

TEST(RankListIntern, SingletonsComeFromTheWorldTable) {
  ranklist_intern_ensure_world(64);
  const RankListInternStats before = ranklist_intern_stats();
  const RankList a = RankList::single(17);
  const RankList b = RankList::single(17);
  const RankListInternStats after = ranklist_intern_stats();
  EXPECT_EQ(a.intern_id(), b.intern_id());
  EXPECT_EQ(a.intern_id(), RankList::from_ranks({17}).intern_id());
  // Pre-installed singletons are lookups, never fresh entries.
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_GE(after.singleton_hits, before.singleton_hits + 2);
}

TEST(RankListIntern, RepeatedUnionsAreMemoized) {
  const RankList a = RankList::from_ranks({1, 5, 9, 13});
  const RankList b = RankList::from_ranks({2, 5, 8, 11});
  RankList first = a;
  first.merge(b);
  const RankListInternStats mid = ranklist_intern_stats();
  RankList second = a;
  second.merge(b);
  // Same pair again: served from the union memo, not recomputed — and the
  // memo key is order-independent.
  RankList swapped = b;
  swapped.merge(a);
  const RankListInternStats after = ranklist_intern_stats();
  EXPECT_EQ(second.intern_id(), first.intern_id());
  EXPECT_EQ(swapped.intern_id(), first.intern_id());
  EXPECT_GE(after.union_memo_hits, mid.union_memo_hits + 2);
  EXPECT_EQ(after.union_computed, mid.union_computed);
}

TEST(RankListIntern, EqualityMatchesOracleAcrossModes) {
  check_property("operator== == member-set equality", [](const auto& ranks) {
    support::Rng rng(ranks.size() + 3);
    const std::vector<sim::Rank> other = random_set(rng);
    const bool same = sorted_unique(ranks) == sorted_unique(other);
    const RankList a = RankList::from_ranks(ranks);
    const RankList b = RankList::from_ranks(other);
    // A list rebuilt from its own members in reverse is the same set.
    const std::vector<sim::Rank> reversed(ranks.rbegin(), ranks.rend());
    return (a == b) != same || !(a == RankList::from_ranks(reversed));
  });
}

// ---------------------------------------------------------------------------
// Canonical run factorization.
// ---------------------------------------------------------------------------

TEST(RankListRuns, RunsAreCanonicalGreedyAndExact) {
  check_property("runs canonical + greedy + exact", [](const auto& ranks) {
    const RankList list = RankList::from_ranks(ranks);
    const auto runs = list.runs();
    std::vector<sim::Rank> expanded;
    sim::Rank prev_end = -1;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RankRun& run = runs[i];
      if (run.len < 1 || run.stride < 1) return true;
      if (run.len == 1 && run.stride != 1) return true;  // not normalized
      if (i != 0 && run.start <= prev_end) return true;  // overlap/disorder
      // Greedy maximality: the next member after this run's end would have
      // been absorbed if it continued the progression.
      if (i + 1 < runs.size() && run.len >= 2 &&
          runs[i + 1].start == run.back() + run.stride) {
        return true;
      }
      prev_end = run.back();
      for (std::int32_t k = 0; k < run.len; ++k)
        expanded.push_back(run.start + k * run.stride);
    }
    return expanded != sorted_unique(ranks);
  });
}

TEST(RankListRuns, FromRunsMatchesFromRanks) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    support::Rng rng(seed * 31);
    // Random sorted disjoint runs, expanded to the equivalent member list.
    std::vector<RankRun> runs;
    std::vector<sim::Rank> ranks;
    sim::Rank next_start = static_cast<sim::Rank>(rng.next_below(8));
    const int nruns = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < nruns; ++i) {
      const int len = 1 + static_cast<int>(rng.next_below(9));
      const int stride = 1 + static_cast<int>(rng.next_below(5));
      const RankRun run{next_start, len, len == 1 ? 1 : stride};
      runs.push_back(run);
      for (int k = 0; k < len; ++k) ranks.push_back(run.start + k * run.stride);
      next_start = run.back() + 1 + static_cast<sim::Rank>(rng.next_below(10));
    }
    const RankList via_runs = RankList::from_runs(runs);
    const RankList via_ranks = RankList::from_ranks(ranks);
    ASSERT_EQ(via_runs.intern_id(), via_ranks.intern_id())
        << "seed " << seed << ": " << set_to_string(ranks);
    ASSERT_EQ(via_runs.members(), via_ranks.members());
  }
}

// ---------------------------------------------------------------------------
// Wire round-trips, including images from the dense encoder.
// ---------------------------------------------------------------------------

TEST(RankListWire, SparseRoundTripIsExact) {
  check_property("encode -> decode -> encode is identity",
                 [](const auto& ranks) {
                   const RankList list = RankList::from_ranks(ranks);
                   const auto image = encode_ranklist_image(list);
                   const RankList back = decode_ranklist_image(image);
                   return back.members() != sorted_unique(ranks) ||
                          encode_ranklist_image(back) != image;
                 });
}

TEST(RankListWire, CrossModeDecodeAgrees) {
  check_property("dense bytes decode to the set (and back)",
                 [](const auto& ranks) {
                   const std::vector<std::uint8_t> dense =
                       dense_wire_bytes(dense_sections(sorted_unique(ranks)));
                   ByteReader r(dense);
                   const RankList decoded = decode_ranklist(r);
                   return decoded.members() != sorted_unique(ranks) ||
                          wire_bytes(decoded) != dense;
                 });
}

// ---------------------------------------------------------------------------
// Golden sparse image + version skew + hostile inputs.
// ---------------------------------------------------------------------------

std::string golden_path() {
  return std::string(CHAM_TESTS_DATA_DIR) + "/ranklist_sparse.golden.bin";
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// The committed image covers every encoder shape at once: a dense block
/// (1-D stride 1), a strided row, a 2-D sub-grid, and isolated singletons.
RankList golden_list() {
  std::vector<sim::Rank> ranks;
  for (int i = 0; i < 16; ++i) ranks.push_back(i);            // block
  for (int i = 0; i < 12; ++i) ranks.push_back(100 + 4 * i);  // strided row
  for (int row = 0; row < 5; ++row)                           // 5x6 grid
    for (int col = 0; col < 6; ++col) ranks.push_back(200 + row * 16 + col);
  ranks.push_back(300);
  ranks.push_back(333);
  return RankList::from_ranks(std::move(ranks));
}

TEST(RankListGolden, SparseImageMatchesCommittedBytes) {
  const auto image = encode_ranklist_image(golden_list());
  // The image must be byte-identical to the dense encoder's (after the
  // leading version byte).
  ASSERT_EQ(std::vector<std::uint8_t>(image.begin() + 1, image.end()),
            dense_wire_bytes(dense_sections(golden_list().members())));
  if (std::getenv("CHAM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const auto golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden; regenerate with CHAM_REGEN_GOLDEN=1";
  EXPECT_EQ(image, golden) << "sparse ranklist wire format drifted";
  EXPECT_EQ(decode_ranklist_image(golden).members(), golden_list().members());
}

TEST(RankListGolden, FutureVersionImageIsRejected) {
  auto image = encode_ranklist_image(RankList::from_ranks({1, 2, 3}));
  image[0] = 2;  // pretend a newer format wrote it
  EXPECT_THROW(decode_ranklist_image(image), DecodeError);
}

TEST(RankListGolden, TrailingBytesAreRejected) {
  auto image = encode_ranklist_image(RankList::from_ranks({1, 2, 3}));
  image.push_back(0);
  EXPECT_THROW(decode_ranklist_image(image), DecodeError);
}

TEST(RankListHostile, SectionCountBeyondBufferIsRejected) {
  ByteWriter w;
  w.u32(0x00FFFFFF);  // claims 16M sections in a 10-byte buffer
  w.i32(0);
  w.u16(0);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(decode_ranklist(r), DecodeError);
}

TEST(RankListHostile, IterationProductBeyondMemberCapIsRejected) {
  ByteWriter w;
  w.u32(1);
  w.i32(0);
  w.u16(2);
  w.i32(1 << 13);  // 8192 * 8192 = 2^26 members > 2^24 cap
  w.i32(1);
  w.i32(1 << 13);
  w.i32(1);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(decode_ranklist(r), DecodeError);
}

TEST(RankListHostile, ImplausibleDimensionsAreRejected) {
  {
    ByteWriter w;  // 9 dims exceeds the dimension-count cap
    w.u32(1);
    w.i32(0);
    w.u16(9);
    for (int d = 0; d < 9; ++d) {
      w.i32(1);
      w.i32(1);
    }
    const auto bytes = w.take();
    ByteReader r(bytes);
    EXPECT_THROW(decode_ranklist(r), DecodeError);
  }
  {
    ByteWriter w;  // zero iterations
    w.u32(1);
    w.i32(0);
    w.u16(1);
    w.i32(0);
    w.i32(1);
    const auto bytes = w.take();
    ByteReader r(bytes);
    EXPECT_THROW(decode_ranklist(r), DecodeError);
  }
}

TEST(RankListHostile, LegacyShapesFallBackToDenseExpansion) {
  // A section whose dims the run fast path refuses (negative stride, or
  // out-of-order starts) must still decode to the exact member set via the
  // dense fallback.
  ByteWriter w;
  w.u32(2);
  w.i32(50);  // descending progression: 50, 47, 44, 41
  w.u16(1);
  w.i32(4);
  w.i32(-3);
  w.i32(10);  // second section starts *below* the first
  w.u16(1);
  w.i32(3);
  w.i32(1);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const RankList list = decode_ranklist(r);
  EXPECT_EQ(list.members(),
            (std::vector<sim::Rank>{10, 11, 12, 41, 44, 47, 50}));
}

}  // namespace
}  // namespace cham::trace
