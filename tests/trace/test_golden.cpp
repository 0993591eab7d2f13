// Golden-file byte-identity tests for the compression pipeline.
//
// The committed files under tests/data/ hold the wire encodings produced by
// the pre-optimization deep-comparison code on fixed deterministic inputs.
// Every test requires today's encoding of the same inputs to match the
// golden bytes exactly, so any hash-precheck bug that changes a fold or
// merge decision shows up as a byte diff, not just a plausible-looking
// trace.
//
// Regenerate after an *intentional* wire or fold-rule change with
//   CHAM_REGEN_GOLDEN=1 ctest -R Golden
// and review the binary diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "trace/merge.hpp"
#include "trace/rsd.hpp"
#include "trace/serialize.hpp"

#ifndef CHAM_TESTS_DATA_DIR
#error "CHAM_TESTS_DATA_DIR must point at tests/data"
#endif

namespace cham::trace {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(CHAM_TESTS_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Deterministic stream with the bench workload's character: repeated
/// timesteps whose nested structure matches while one message size varies,
/// plus seeded irregular events — exercises both fold rules, loop
/// increments, and merge alignment.
std::vector<EventRecord> oracle_stream(std::uint64_t seed, int timesteps) {
  support::Rng rng(seed);
  std::vector<EventRecord> out;
  auto push = [&out](sim::Op op, std::uint64_t stack, std::uint64_t bytes,
                     std::int32_t off) {
    EventRecord ev;
    ev.op = op;
    ev.stack_sig = stack;
    ev.bytes = bytes;
    if (op == sim::Op::kSend) ev.dest = Endpoint{Endpoint::Kind::kRelative, off};
    if (op == sim::Op::kRecv) ev.src = Endpoint{Endpoint::Kind::kRelative, off};
    ev.ranks = RankList::single(0);
    ev.delta.add(1e-6 + 1e-9 * static_cast<double>(bytes % 97));
    out.push_back(std::move(ev));
  };
  for (int t = 0; t < timesteps; ++t) {
    const std::uint64_t adaptive = 4096 + 8 * static_cast<std::uint64_t>(t % 4);
    for (int rep = 0; rep < 2; ++rep) {
      for (int d = 0; d < 3; ++d) push(sim::Op::kSend, 0x11, 512 + d, +1);
      push(sim::Op::kSend, 0x11, adaptive, +1);
      push(sim::Op::kRecv, 0x12, adaptive, -1);
    }
    if (rng.next_below(5) == 0)
      push(sim::Op::kAllreduce, 0x13, 8 * (1 + rng.next_below(4)), 0);
    push(sim::Op::kBarrier, 0x14, 0, 0);
  }
  return out;
}

std::vector<TraceNode> fold(const std::vector<EventRecord>& stream) {
  IntraTrace intra;
  for (const EventRecord& ev : stream) intra.append(ev);
  return intra.take();
}

/// Encode with `produce`, then compare against / regenerate the golden.
void check_golden(const std::string& name,
                  const std::function<std::vector<std::uint8_t>()>& produce) {
  const std::vector<std::uint8_t> bytes = produce();
  const std::string path = golden_path(name);
  if (std::getenv("CHAM_REGEN_GOLDEN") != nullptr) {
    write_file(path, bytes);
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::vector<std::uint8_t> golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << path << " missing — run with CHAM_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(bytes, golden) << name << ": output drifted from golden bytes";
}

TEST(Golden, FoldedTraceBytes) {
  check_golden("fold_single_rank.golden.bin", [] {
    return encode_trace(fold(oracle_stream(0xD00D, 48)));
  });
}

TEST(Golden, IrregularFoldedTraceBytes) {
  check_golden("fold_irregular.golden.bin", [] {
    // Different seed and period: more jitter events, partial folds at the
    // tail, windows that never close.
    auto stream = oracle_stream(0xBEEF, 31);
    auto extra = oracle_stream(0xF00D, 5);
    stream.insert(stream.end(), extra.begin(), extra.end());
    return encode_trace(fold(stream));
  });
}

TEST(Golden, MergedTraceBytes) {
  check_golden("merge_four_ranks.golden.bin", [] {
    std::vector<std::vector<TraceNode>> per_rank;
    for (std::uint64_t r = 0; r < 4; ++r) {
      auto stream = oracle_stream(0xA110 + r, 40);
      for (EventRecord& ev : stream)
        ev.ranks = RankList::single(static_cast<sim::Rank>(r));
      per_rank.push_back(fold(stream));
    }
    auto merged = inter_merge(std::move(per_rank[0]), std::move(per_rank[1]));
    auto other = inter_merge(std::move(per_rank[2]), std::move(per_rank[3]));
    return encode_trace(inter_merge(std::move(merged), std::move(other)));
  });
}

}  // namespace
}  // namespace cham::trace
