// Communication-group encoding: ScalaTrace's ranklist.
//
// ScalaTrace property (3): participant groups are stored as EBNF
// <dimension, start_rank, iteration_length, stride>+ sections, giving a
// near-constant-size encoding of the regular rank patterns SPMD codes
// produce (rows, columns, sub-lattices).
//
// A RankList holds the canonical greedy run factorization <start, length,
// stride>+ in a global intern table. Identical member sets share one
// interned entry, equality is a pointer compare, unions of previously-seen
// pairs come from a memo, and the factored sections/footprint are computed
// once per distinct set. This is what keeps the protocol's per-rank
// cluster-table copies O(clusters) instead of O(members) at 64k ranks.
// The runs are exactly pass 1 of the section factorization (maximal
// arithmetic progressions, greedily from the lowest member).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace cham::trace {

/// One <dim, start, (iters, stride)...> section.
struct RankSection {
  sim::Rank start = 0;
  /// Outer-to-inner (iters, stride) pairs; empty means the singleton {start}.
  std::vector<std::pair<int, int>> dims;

  [[nodiscard]] std::size_t count() const;
  void expand_into(std::vector<sim::Rank>& out) const;
  [[nodiscard]] std::string to_string() const;
  bool operator==(const RankSection& other) const = default;
};

/// One maximal arithmetic progression of members: start, start + stride,
/// ..., start + (len-1) * stride. Canonical form: len >= 1, stride >= 1,
/// and singleton runs normalize stride to 1.
struct RankRun {
  sim::Rank start = 0;
  std::int32_t len = 1;
  std::int32_t stride = 1;

  [[nodiscard]] sim::Rank back() const { return start + (len - 1) * stride; }
  bool operator==(const RankRun& other) const = default;
};

namespace detail {

/// One interned member set: the canonical runs (stored in the interner's
/// arena), the member count, and the factored encoding cached once.
/// Immutable after interning; RankList holds these by pointer, so two lists
/// over the same member set compare equal in O(1).
struct InternedRuns {
  const RankRun* runs = nullptr;
  std::uint32_t nruns = 0;
  std::uint64_t hash = 0;
  std::size_t count = 0;
  std::size_t footprint = 0;
  std::vector<RankSection> sections;
};

}  // namespace detail

class RankList {
 public:
  RankList() = default;
  static RankList single(sim::Rank r);
  static RankList from_ranks(std::vector<sim::Rank> ranks);
  /// Build from sorted, pairwise-disjoint runs (the serializer's run
  /// decode path). Canonicalizes run boundaries in O(runs).
  static RankList from_runs(std::vector<RankRun> runs);

  /// Set union.
  void merge(const RankList& other);

  /// Set intersection (the property-test algebra; not a protocol hot path).
  [[nodiscard]] static RankList intersect(const RankList& a, const RankList& b);

  [[nodiscard]] bool contains(sim::Rank r) const;
  [[nodiscard]] std::size_t count() const {
    return interned_ != nullptr ? interned_->count : 0;
  }
  [[nodiscard]] bool empty() const { return count() == 0; }

  /// Materialized member vector, ascending. O(members) — use
  /// for_each_member (or runs()) on hot paths.
  [[nodiscard]] std::vector<sim::Rank> members() const;

  /// Visit members in ascending order without materializing them.
  /// `fn` returning bool stops early on false; void-returning fn visits all.
  template <typename Fn>
  void for_each_member(Fn&& fn) const {
    for (const RankRun& run : runs()) {
      for (std::int32_t k = 0; k < run.len; ++k) {
        if (!visit(fn, run.start + k * run.stride)) return;
      }
    }
  }

  [[nodiscard]] sim::Rank first() const;

  /// The canonical run factorization (empty span for an empty list).
  [[nodiscard]] std::span<const RankRun> runs() const {
    if (interned_ == nullptr) return {};
    return {interned_->runs, interned_->nruns};
  }

  /// Opaque intern identity: null iff empty, equal iff same member set.
  /// Exposed for the intern-table invariant tests and bench stats.
  [[nodiscard]] const void* intern_id() const { return interned_; }

  /// Greedy factorization into 1-D/2-D sections (the serialized form).
  [[nodiscard]] std::vector<RankSection> sections() const;

  /// Bytes the factored encoding occupies (drives Table IV space numbers).
  [[nodiscard]] std::size_t footprint_bytes() const;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const RankList& other) const;

 private:
  template <typename Fn>
  static bool visit(Fn&& fn, sim::Rank r) {
    if constexpr (std::is_void_v<decltype(fn(r))>) {
      fn(r);
      return true;
    } else {
      return static_cast<bool>(fn(r));
    }
  }

  const detail::InternedRuns* interned_ = nullptr;  ///< null iff empty
};

/// Intern-table telemetry for bench_scale and the scale test suite.
struct RankListInternStats {
  std::size_t entries = 0;        ///< distinct member sets interned
  std::size_t singleton_hits = 0; ///< single() served from the world table
  std::size_t intern_hits = 0;    ///< intern() found an existing entry
  std::size_t union_memo_hits = 0;
  std::size_t union_computed = 0;
  std::size_t arena_bytes = 0;    ///< run storage held by the arena
};

[[nodiscard]] RankListInternStats ranklist_intern_stats();

/// Pre-install singleton entries for ranks [0, nprocs). Called once before
/// fibers start (tool constructors); makes RankList::single a table lookup.
void ranklist_intern_ensure_world(int nprocs);

/// Drop the whole intern table and its arena (bulk teardown between bench
/// runs / tests). Every non-empty RankList must be dead — interned pointers
/// dangle after this.
void ranklist_intern_reset();

}  // namespace cham::trace
