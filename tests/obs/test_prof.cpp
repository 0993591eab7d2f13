// ChamProf unit tests: timed lock acquisition, phase self-time
// attribution, the chameleon.prof.v1 export (validator + renderers),
// counter-track merging, and the Timeline streaming-flush mode.
#include "obs/prof/profiler.hpp"

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/prof/summary.hpp"
#include "obs/timeline.hpp"
#include "obs/validate.hpp"
#include "support/json.hpp"

namespace cham::obs::prof {
namespace {

support::json::Value parse_ok(const std::string& doc) {
  support::json::Value v;
  std::string error;
  EXPECT_TRUE(support::json::parse(doc, &v, &error)) << error;
  return v;
}

/// Installs a profiler for one test and guarantees removal.
class ProfilerScope {
 public:
  explicit ProfilerScope(Profiler* p) { set_profiler(p); }
  ~ProfilerScope() { set_profiler(nullptr); }
};

TEST(Prof, DisabledByDefault) {
  EXPECT_EQ(profiler(), nullptr);
  // Hooks must be safe no-ops without an installed profiler.
  std::mutex m;
  { const TimedLockGuard lock(m, LockClass::kMailbox); }
  { const PhaseScope phase(Phase::kFold); }
}

TEST(Prof, TimedLockGuardCountsAcquisitions) {
  Profiler prof;
  ProfilerScope scope(&prof);
  std::mutex m;
  for (int i = 0; i < 5; ++i) {
    const TimedLockGuard lock(m, LockClass::kInbox);
  }
  const LockStats& stats = prof.lock_stats(LockClass::kInbox);
  EXPECT_EQ(stats.acquisitions.load(), 5u);
  // Uncontended acquisitions take the try_lock fast path: no clock reads.
  EXPECT_EQ(stats.contended.load(), 0u);
  EXPECT_EQ(stats.wait_ns.load(), 0u);
}

/// Kernel scheduling state of thread `tid` of this process ('R' running,
/// 'S' sleeping, ...), from /proc/self/task/<tid>/stat; '?' if unreadable.
char thread_state(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // "<tid> (<comm>) <state> ..." — comm may contain spaces and parentheses.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos || close + 2 >= stat.size()) return '?';
  return stat[close + 2];
}

TEST(Prof, ContendedAcquirePaysAndRecordsWait) {
  Profiler prof;
  ProfilerScope scope(&prof);
  std::mutex m;
  m.lock();
  std::atomic<pid_t> waiter_tid{0};
  std::thread waiter([&] {
    waiter_tid.store(static_cast<pid_t>(syscall(SYS_gettid)));
    const TimedLockGuard lock(m, LockClass::kShardQueue);
  });
  // Hold the mutex until the waiter is provably blocked inside lock(): it
  // has counted its acquisition (so its try_lock already failed against
  // the held mutex) and the kernel reports it sleeping. A sleep-based hold
  // loses this race on a loaded host. The deadline only guards against a
  // hang; the assertions below catch a waiter that never blocked.
  const LockStats& stats = prof.lock_stats(LockClass::kShardQueue);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline &&
         (stats.acquisitions.load() < 1 || thread_state(waiter_tid) != 'S'))
    std::this_thread::yield();
  m.unlock();
  waiter.join();
  EXPECT_EQ(stats.acquisitions.load(), 1u);
  EXPECT_EQ(stats.contended.load(), 1u);
  EXPECT_GT(stats.wait_ns.load(), 0u);
}

TEST(Prof, PhaseScopeAttributesSelfTime) {
  Profiler prof;
  ProfilerScope scope(&prof);
  prof.bind_shards(1);
  {
    const PhaseScope outer(Phase::kClustering);
    { const PhaseScope inner(Phase::kFold); }
  }
  const ShardSlot& slot = prof.slot(0);
  const auto at = [&](Phase p) {
    return slot.phase_seconds[static_cast<std::size_t>(p)];
  };
  EXPECT_GE(at(Phase::kClustering), 0.0);
  EXPECT_GT(at(Phase::kFold), 0.0);
  // The sampler tag is restored on exit.
  EXPECT_EQ(slot.cur_phase.load(), static_cast<std::uint8_t>(Phase::kIdle));
}

/// Busy-wait so host (wall) time visibly advances.
void spin_for(double seconds) {
  const double t0 = host_seconds();
  while (host_seconds() - t0 < seconds) {
  }
}

TEST(Prof, PhaseScopeChainIsFiberLocalAcrossDispatch) {
  Profiler prof;
  ProfilerScope scope(&prof);
  prof.bind_shards(1);
  const auto at = [&](Phase p) {
    return prof.slot(0).phase_seconds[static_cast<std::size_t>(p)];
  };
  // "Fiber A" opens a scope and blocks mid-scope: the scheduler parks its
  // chain at the dispatch boundary.
  auto a = std::make_unique<PhaseScope>(Phase::kClustering);
  PhaseScope* parked = PhaseScope::suspend();
  EXPECT_NE(parked, nullptr);
  // "Fiber B" dispatched on the same thread starts with an empty chain:
  // its scope must not chain onto A's parked scope, and its runtime lands
  // on its own phase.
  {
    const PhaseScope b(Phase::kFold);
    spin_for(2e-3);
  }
  EXPECT_GT(at(Phase::kFold), 1.5e-3);
  // Resume A and close its scope: the parked interval (B's run) must be
  // excluded from A's attribution.
  PhaseScope::resume(parked);
  a.reset();
  EXPECT_LT(at(Phase::kClustering), 1e-3);
  EXPECT_EQ(prof.slot(0).cur_phase.load(),
            static_cast<std::uint8_t>(Phase::kIdle));
}

TEST(Prof, NoteEpochBoundsTheSeries) {
  Profiler prof(ProfilerOptions{.sample_interval_us = 500,
                                .max_epoch_samples = 4});
  prof.bind_shards(2);
  for (std::uint64_t e = 1; e <= 10; ++e) prof.note_epoch(e, {1, 2});
  const auto doc = parse_ok(prof.to_json_string());
  const auto* epochs = doc.find("epochs");
  ASSERT_NE(epochs, nullptr);
  EXPECT_DOUBLE_EQ(epochs->find("planned")->as_number(), 10.0);
  EXPECT_DOUBLE_EQ(epochs->find("series_recorded")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(epochs->find("series_dropped")->as_number(), 6.0);
}

TEST(Prof, ExportValidatesAndRenders) {
  Profiler prof(ProfilerOptions{.sample_interval_us = 100});
  ProfilerScope scope(&prof);
  prof.bind_shards(2);
  prof.start_sampling();
  {
    std::mutex m;
    const TimedLockGuard lock(m, LockClass::kMailbox);
    const PhaseScope phase(Phase::kRadixMerge);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  prof.note_epoch(1, {3, 1});
  prof.stop_sampling();

  const std::string doc = prof.to_json_string();
  std::string error;
  EXPECT_TRUE(validate_prof_json(doc, &error)) << error;

  const auto v = parse_ok(doc);
  EXPECT_EQ(v.find("schema")->as_string(), "chameleon.prof.v1");
  EXPECT_EQ(v.find("shards")->as_array().size(), 2u);

  const std::string summary = render_profile_summary(v);
  EXPECT_NE(summary.find("shard"), std::string::npos);
  EXPECT_NE(summary.find("busiest locks"), std::string::npos);
  // Folded lines render (possibly empty if no tick landed mid-phase).
  (void)render_folded(v);
}

TEST(Prof, CounterTracksMergeIntoTimeline) {
  Profiler prof;
  prof.bind_shards(2);
  prof.note_epoch(1, {2, 3});
  prof.note_epoch(2, {1, 0});
  Timeline tl;
  tl.instant(Timeline::kSchedulerTid, "marker", "test");
  prof.export_counter_tracks(tl);
  const std::string doc = tl.to_json();
  std::string error;
  EXPECT_TRUE(validate_timeline_json(doc, &error)) << error;
  // Two epochs x (two shards + total).
  const auto v = parse_ok(doc);
  std::size_t counters = 0;
  for (const auto& ev : v.find("traceEvents")->as_array())
    if (ev.find("ph")->as_string() == "C") ++counters;
  EXPECT_EQ(counters, 6u);
}

TEST(Prof, WorkerShardBindingIsPerThread) {
  bind_worker_shard(7);
  EXPECT_EQ(worker_shard(), 7);
  std::thread other([] { EXPECT_EQ(worker_shard(), 0); });
  other.join();
  bind_worker_shard(0);
}

// --------------------------------------------------------------------------
// Timeline streaming flush
// --------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

void emit_events(Timeline& tl) {
  tl.set_track_name(Timeline::rank_tid(0), "rank 0");
  for (int i = 0; i < 25; ++i) {
    tl.begin(Timeline::rank_tid(0), "op " + std::to_string(i), "test");
    tl.instant(Timeline::kSchedulerTid, "tick", "test");
    tl.end(Timeline::rank_tid(0));
  }
}

TEST(TimelineFlush, StreamedDocumentMatchesInMemoryModuloTimestamps) {
  const std::string path = "test_prof_flush.json";
  Timeline streamed;
  streamed.set_flush(path, 10);
  EXPECT_TRUE(streamed.flushing());
  emit_events(streamed);
  EXPECT_TRUE(streamed.finish_flush());

  Timeline buffered;
  emit_events(buffered);

  const std::string streamed_doc = slurp(path);
  const std::string buffered_doc = buffered.to_json();
  std::string error;
  EXPECT_TRUE(validate_timeline_json(streamed_doc, &error)) << error;
  EXPECT_TRUE(validate_timeline_json(buffered_doc, &error)) << error;

  // Same event set with the same metadata; the streamed file appends
  // metadata at the end (it can only be known once flushing finishes),
  // and only the timestamps (real clock reads) may differ between the
  // two instances — so compare sorted (ph, name) multisets.
  const auto flatten = [](const std::string& doc) {
    std::vector<std::string> out;
    support::json::Value v;
    std::string err;
    EXPECT_TRUE(support::json::parse(doc, &v, &err)) << err;
    for (const auto& ev : v.find("traceEvents")->as_array()) {
      std::string line = ev.find("ph")->as_string();
      // 'E' events carry no name.
      const auto* name = ev.find("name");
      line += '|' + (name != nullptr ? name->as_string() : std::string());
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(flatten(streamed_doc), flatten(buffered_doc));
  EXPECT_EQ(streamed.event_count(), buffered.event_count());
  std::remove(path.c_str());
}

TEST(TimelineFlush, CounterEventsStreamToo) {
  const std::string path = "test_prof_flush_counters.json";
  Timeline tl;
  tl.set_flush(path, 2);
  Profiler prof;
  prof.bind_shards(1);
  for (std::uint64_t e = 1; e <= 5; ++e) prof.note_epoch(e, {1});
  prof.export_counter_tracks(tl);
  EXPECT_TRUE(tl.finish_flush());
  const std::string doc = slurp(path);
  std::string error;
  EXPECT_TRUE(validate_timeline_json(doc, &error)) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cham::obs::prof
