#include "trace/ranklist.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "analysis/race/annotate.hpp"
#include "obs/prof/profiler.hpp"
#include "support/arena.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"

namespace cham::trace {

std::size_t RankSection::count() const {
  std::size_t n = 1;
  for (const auto& [iters, stride] : dims) {
    (void)stride;
    n *= static_cast<std::size_t>(iters);
  }
  return n;
}

void RankSection::expand_into(std::vector<sim::Rank>& out) const {
  std::vector<sim::Rank> current{start};
  for (const auto& [iters, stride] : dims) {
    std::vector<sim::Rank> next;
    next.reserve(current.size() * static_cast<std::size_t>(iters));
    for (sim::Rank base : current)
      for (int k = 0; k < iters; ++k) next.push_back(base + k * stride);
    current = std::move(next);
  }
  out.insert(out.end(), current.begin(), current.end());
}

std::string RankSection::to_string() const {
  std::ostringstream os;
  os << '<' << dims.size() << ' ' << start;
  for (const auto& [iters, stride] : dims) os << ' ' << iters << ' ' << stride;
  os << '>';
  return os.str();
}

namespace {

/// Pass 2 of the factorization: group consecutive runs with identical
/// shape and equally spaced starts into 2-D sections (e.g. the interior of
/// a 2-D process grid).
std::vector<RankSection> group_runs(std::vector<RankSection> runs) {
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

/// Streaming builder producing the greedy run decomposition of an ascending
/// member stream: a singleton run adopts the next member unconditionally
/// (fixing the stride), a longer run extends only on a matching stride.
/// push_run() feeds a whole arithmetic progression in O(1) amortized
/// instead of member-by-member.
class RunBuilder {
 public:
  void push(sim::Rank r) {
    if (cur_.len == 0) {
      cur_ = {r, 1, 1};
    } else if (cur_.len == 1) {
      cur_.stride = r - cur_.start;
      cur_.len = 2;
    } else if (r - cur_.back() == cur_.stride) {
      ++cur_.len;
    } else {
      emit();
      cur_ = {r, 1, 1};
    }
  }

  void push_run(const RankRun& r) {
    if (r.len <= 0) return;
    if (r.len == 1) {
      push(r.start);
      return;
    }
    if (cur_.len == 0) {
      cur_ = r;
      return;
    }
    if (cur_.len == 1) {
      // The second member always joins; the rest of `r` follows only if its
      // stride matches the one just formed.
      cur_.stride = r.start - cur_.start;
      cur_.len = 2;
      if (r.stride == cur_.stride) {
        cur_.len += r.len - 1;
      } else {
        emit();
        cur_ = {r.start + r.stride, r.len - 1, r.stride};
      }
      return;
    }
    if (r.start - cur_.back() == cur_.stride) {
      if (r.stride == cur_.stride) {
        cur_.len += r.len;
      } else {
        ++cur_.len;  // first member of r extends the current run...
        emit();      // ...then the stride changes, ending it
        cur_ = {r.start + r.stride, r.len - 1, r.stride};
      }
      return;
    }
    emit();
    cur_ = r;
  }

  std::vector<RankRun> take() {
    if (cur_.len > 0) emit();
    return std::move(runs_);
  }

 private:
  void emit() {
    if (cur_.len == 1) cur_.stride = 1;  // canonical singleton form
    runs_.push_back(cur_);
    cur_ = RankRun{0, 0, 0};
  }

  std::vector<RankRun> runs_;
  RankRun cur_{0, 0, 0};
};

std::uint64_t hash_runs(const std::vector<RankRun>& runs) {
  std::uint64_t h = support::fnv1a64("ranklist.runs");
  for (const RankRun& r : runs) {
    h = support::hash_combine(
        h, support::mix64(static_cast<std::uint32_t>(r.start)));
    h = support::hash_combine(
        h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.len))
            << 32) |
               static_cast<std::uint32_t>(r.stride));
  }
  return h;
}

std::vector<RankSection> sections_of_runs(const RankRun* runs,
                                          std::uint32_t nruns) {
  std::vector<RankSection> pass1;
  pass1.reserve(nruns);
  for (std::uint32_t i = 0; i < nruns; ++i) {
    RankSection sec;
    sec.start = runs[i].start;
    if (runs[i].len > 1) sec.dims.push_back({runs[i].len, runs[i].stride});
    pass1.push_back(std::move(sec));
  }
  return group_runs(std::move(pass1));
}

std::size_t footprint_of_sections(const std::vector<RankSection>& sections) {
  // Serialized section: start (4) + dim count (2) + 8 per (iters, stride);
  // the leading section count is 4 bytes (widened from 2 for 64k ranks).
  std::size_t bytes = 4;
  for (const auto& sec : sections) bytes += 6 + 8 * sec.dims.size();
  return bytes;
}

// ---------------------------------------------------------------------------
// Intern table. One global table shared by every rank (and, under the
// sharded engine, by real threads). Same ChamRace treatment as the callsite
// table: interned-only (insert-if-absent, entries immutable once present),
// so it is modelled as an atomic container via RACE_ATOMIC rather than as a
// ScopedSync region — see callsite.cpp for the rationale. ChamProf counts
// its mutex as the `intern` lock class.
// ---------------------------------------------------------------------------

struct InternTable {
  std::mutex mutex;
  support::Arena arena;
  // hash -> entries with that hash (collisions resolved by run compare).
  std::unordered_map<std::uint64_t, std::vector<const detail::InternedRuns*>>
      by_hash;
  // Pre-installed singleton entries for ranks [0, world); grown only by
  // ensure_world, which runs before fibers start.
  std::vector<const detail::InternedRuns*> singletons;
  // (lo, hi) pointer pair -> union result. Merge trees union the same pair
  // of member sets once per fold level; the memo collapses repeats to O(1).
  std::unordered_map<std::uint64_t, const detail::InternedRuns*> union_memo;
  std::vector<std::unique_ptr<detail::InternedRuns>> entries;

  std::size_t singleton_hits = 0;
  std::size_t intern_hits = 0;
  std::size_t union_memo_hits = 0;
  std::size_t union_computed = 0;
};

InternTable& intern_table() {
  static InternTable* table = new InternTable();
  return *table;
}

std::uint64_t pair_key(const void* a, const void* b) {
  const auto lo = reinterpret_cast<std::uintptr_t>(a < b ? a : b);
  const auto hi = reinterpret_cast<std::uintptr_t>(a < b ? b : a);
  return support::hash_combine(support::mix64(lo), support::mix64(hi));
}

bool same_runs(const detail::InternedRuns& e,
               const std::vector<RankRun>& runs) {
  if (e.nruns != runs.size()) return false;
  return std::equal(runs.begin(), runs.end(), e.runs);
}

/// Intern canonical runs; table mutex must be held.
const detail::InternedRuns* intern_locked(InternTable& t,
                                          std::vector<RankRun>&& runs) {
  const std::uint64_t h = hash_runs(runs);
  auto& bucket = t.by_hash[h];
  for (const detail::InternedRuns* e : bucket) {
    if (same_runs(*e, runs)) {
      ++t.intern_hits;
      return e;
    }
  }
  auto entry = std::make_unique<detail::InternedRuns>();
  entry->nruns = static_cast<std::uint32_t>(runs.size());
  RankRun* stored = t.arena.allocate_array<RankRun>(runs.size());
  std::copy(runs.begin(), runs.end(), stored);
  entry->runs = stored;
  entry->hash = h;
  std::size_t count = 0;
  for (const RankRun& r : runs) count += static_cast<std::size_t>(r.len);
  entry->count = count;
  entry->sections = sections_of_runs(entry->runs, entry->nruns);
  entry->footprint = footprint_of_sections(entry->sections);
  const detail::InternedRuns* raw = entry.get();
  bucket.push_back(raw);
  t.entries.push_back(std::move(entry));
  return raw;
}

const detail::InternedRuns* intern_runs(std::vector<RankRun>&& runs) {
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  return intern_locked(t, std::move(runs));
}

const detail::InternedRuns* intern_singleton(sim::Rank r) {
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  if (r >= 0 && static_cast<std::size_t>(r) < t.singletons.size()) {
    ++t.singleton_hits;
    return t.singletons[static_cast<std::size_t>(r)];
  }
  return intern_locked(t, {RankRun{r, 1, 1}});
}

/// Union of two interned member sets, streamed run-by-run: a run whose
/// remainder ends before the other side's next member is forwarded whole
/// (O(1) via push_run), so far-apart sets union in O(runs), not O(members).
std::vector<RankRun> union_runs(const detail::InternedRuns& a,
                                const detail::InternedRuns& b) {
  RunBuilder out;
  std::uint32_t ia = 0, ib = 0;
  std::int32_t ka = 0, kb = 0;  // position inside the current run
  const auto cur = [](const detail::InternedRuns& e, std::uint32_t i,
                      std::int32_t k) {
    return e.runs[i].start + k * e.runs[i].stride;
  };
  while (ia < a.nruns && ib < b.nruns) {
    const sim::Rank va = cur(a, ia, ka);
    const sim::Rank vb = cur(b, ib, kb);
    if (va == vb) {
      out.push(va);
      if (++ka == a.runs[ia].len) { ++ia; ka = 0; }
      if (++kb == b.runs[ib].len) { ++ib; kb = 0; }
    } else if (va < vb) {
      const RankRun& ra = a.runs[ia];
      if (ra.back() < vb) {  // whole remainder precedes b's next member
        out.push_run({va, ra.len - ka, ra.stride});
        ++ia; ka = 0;
      } else {
        out.push(va);
        if (++ka == ra.len) { ++ia; ka = 0; }
      }
    } else {
      const RankRun& rb = b.runs[ib];
      if (rb.back() < va) {
        out.push_run({vb, rb.len - kb, rb.stride});
        ++ib; kb = 0;
      } else {
        out.push(vb);
        if (++kb == rb.len) { ++ib; kb = 0; }
      }
    }
  }
  while (ia < a.nruns) {
    out.push_run({cur(a, ia, ka), a.runs[ia].len - ka, a.runs[ia].stride});
    ++ia; ka = 0;
  }
  while (ib < b.nruns) {
    out.push_run({cur(b, ib, kb), b.runs[ib].len - kb, b.runs[ib].stride});
    ++ib; kb = 0;
  }
  return out.take();
}

const detail::InternedRuns* union_interned(const detail::InternedRuns* a,
                                           const detail::InternedRuns* b) {
  if (a == b) return a;
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  const std::uint64_t key = pair_key(a, b);
  if (const auto it = t.union_memo.find(key); it != t.union_memo.end()) {
    ++t.union_memo_hits;
    return it->second;
  }
  ++t.union_computed;
  const detail::InternedRuns* result = intern_locked(t, union_runs(*a, *b));
  t.union_memo.emplace(key, result);
  return result;
}

std::vector<RankRun> runs_of_members(const std::vector<sim::Rank>& members) {
  RunBuilder b;
  for (const sim::Rank r : members) b.push(r);
  return b.take();
}

}  // namespace

RankList RankList::single(sim::Rank r) {
  RankList list;
  list.interned_ = intern_singleton(r);
  return list;
}

RankList RankList::from_ranks(std::vector<sim::Rank> ranks) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  RankList list;
  if (ranks.empty()) return list;
  list.interned_ = intern_runs(runs_of_members(ranks));
  return list;
}

RankList RankList::from_runs(std::vector<RankRun> runs) {
  RankList list;
  if (runs.empty()) return list;
  // Canonicalize boundaries (adjacent runs may fuse); O(runs) via push_run.
  RunBuilder b;
  for (const RankRun& r : runs) b.push_run(r);
  list.interned_ = intern_runs(b.take());
  return list;
}

void RankList::merge(const RankList& other) {
  if (other.empty()) return;
  interned_ = empty() ? other.interned_
                      : union_interned(interned_, other.interned_);
}

RankList RankList::intersect(const RankList& a, const RankList& b) {
  std::vector<sim::Rank> out;
  const RankList& small = a.count() <= b.count() ? a : b;
  const RankList& large = a.count() <= b.count() ? b : a;
  small.for_each_member([&](sim::Rank r) {
    if (large.contains(r)) out.push_back(r);
  });
  return from_ranks(std::move(out));
}

bool RankList::contains(sim::Rank r) const {
  if (interned_ == nullptr) return false;
  // Binary search for the last run starting at or before r.
  const RankRun* runs = interned_->runs;
  std::uint32_t lo = 0, hi = interned_->nruns;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (runs[mid].start <= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;
  const RankRun& run = runs[lo - 1];
  const std::int64_t off = static_cast<std::int64_t>(r) - run.start;
  return off >= 0 && off % run.stride == 0 && off / run.stride < run.len;
}

std::vector<sim::Rank> RankList::members() const {
  std::vector<sim::Rank> out;
  out.reserve(count());
  for_each_member([&](sim::Rank r) { out.push_back(r); });
  return out;
}

sim::Rank RankList::first() const {
  CHAM_CHECK_MSG(!empty(), "first() on empty ranklist");
  return interned_->runs[0].start;
}

std::vector<RankSection> RankList::sections() const {
  if (interned_ == nullptr) return {};
  return interned_->sections;
}

std::size_t RankList::footprint_bytes() const {
  return interned_ != nullptr ? interned_->footprint
                              : footprint_of_sections({});
}

std::string RankList::to_string() const {
  std::ostringstream os;
  bool first_section = true;
  for (const auto& sec : sections()) {
    if (!first_section) os << ' ';
    os << sec.to_string();
    first_section = false;
  }
  return os.str();
}

bool RankList::operator==(const RankList& other) const {
  return interned_ == other.interned_;  // canonical: same set <=> same entry
}

RankListInternStats ranklist_intern_stats() {
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  RankListInternStats stats;
  stats.entries = t.entries.size();
  stats.singleton_hits = t.singleton_hits;
  stats.intern_hits = t.intern_hits;
  stats.union_memo_hits = t.union_memo_hits;
  stats.union_computed = t.union_computed;
  stats.arena_bytes = t.arena.bytes_reserved();
  return stats;
}

std::vector<RankList> ranklist_intern_ensure_world(int nprocs) {
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  while (t.singletons.size() < static_cast<std::size_t>(nprocs)) {
    const auto r = static_cast<sim::Rank>(t.singletons.size());
    t.singletons.push_back(intern_locked(t, {RankRun{r, 1, 1}}));
  }
  std::vector<RankList> lists(static_cast<std::size_t>(nprocs));
  for (std::size_t r = 0; r < lists.size(); ++r)
    lists[r].interned_ = t.singletons[r];
  return lists;
}

void ranklist_intern_reset() {
  InternTable& t = intern_table();
  RACE_ATOMIC("trace.ranklist_intern", 0, 0);
  const obs::prof::TimedLockGuard lock(t.mutex,
                                       obs::prof::LockClass::kIntern);
  t.by_hash.clear();
  t.singletons.clear();
  t.union_memo.clear();
  t.entries.clear();
  t.arena.reset();
  t.singleton_hits = 0;
  t.intern_hits = 0;
  t.union_memo_hits = 0;
  t.union_computed = 0;
}

}  // namespace cham::trace
