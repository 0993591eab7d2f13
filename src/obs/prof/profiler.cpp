#include "obs/prof/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/timeline.hpp"
#include "support/logging.hpp"
#include "support/timer.hpp"

namespace cham::obs::prof {

double host_seconds() { return support::thread_cpu_seconds(); }

const char* lock_class_name(LockClass c) {
  switch (c) {
    case LockClass::kMailbox:
      return "mailbox";
    case LockClass::kInbox:
      return "inbox";
    case LockClass::kCollMap:
      return "collmap";
    case LockClass::kCollSite:
      return "collsite";
    case LockClass::kShardQueue:
      return "shard_queue";
    case LockClass::kTimelineSink:
      return "timeline_sink";
    case LockClass::kMetricsSink:
      return "metrics_sink";
    case LockClass::kCount:
      break;
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kIdle:
      return "idle";
    case Phase::kEngine:
      return "engine";
    case Phase::kFold:
      return "fold";
    case Phase::kRadixMerge:
      return "radix_merge";
    case Phase::kInterMerge:
      return "inter_merge";
    case Phase::kClustering:
      return "clustering";
    case Phase::kLeadMerge:
      return "lead_merge";
    case Phase::kObsSink:
      return "obs_sink";
    case Phase::kCount:
      break;
  }
  return "?";
}

namespace {

std::atomic<Profiler*> g_profiler{nullptr};

/// Shard binding for the calling thread. Default 0: the driving thread runs
/// shard 0's fibers.
thread_local int t_worker_shard = 0;

/// Innermost live PhaseScope attached to this thread. Logically the chain
/// is *fiber*-local — scopes live on fiber stacks and straddle blocking
/// calls — so the scheduler swaps this pointer at every dispatch boundary
/// via PhaseScope::suspend()/resume().
thread_local PhaseScope* t_phase_top = nullptr;

}  // namespace

Profiler* profiler_slot() { return g_profiler.load(std::memory_order_acquire); }

void set_profiler(Profiler* p) { g_profiler.store(p, std::memory_order_release); }

void bind_worker_shard(int shard) { t_worker_shard = shard; }

int worker_shard() { return t_worker_shard; }

// --------------------------------------------------------------------------
// PhaseScope
// --------------------------------------------------------------------------

void PhaseScope::enter(Phase p) {
  phase_ = p;
  parent_ = t_phase_top;
  t_phase_top = this;
  ShardSlot& slot = prof_->slot(t_worker_shard);
  prev_tag_ = slot.cur_phase.load(std::memory_order_relaxed);
  slot.cur_phase.store(static_cast<std::uint8_t>(p),
                       std::memory_order_relaxed);
  t0_ = host_seconds();
}

void PhaseScope::leave() {
  // Attribute *self* time: elapsed minus the dispatch-parked intervals
  // (the fiber was blocked; other fibers ran) minus what nested scopes
  // already claimed. The slot is re-resolved because a scope that
  // straddled a suspend() may leave from a different dispatch than it
  // entered.
  const double total = host_seconds() - t0_ - paused_seconds_;
  ShardSlot& slot = prof_->slot(t_worker_shard);
  slot.phase_seconds[static_cast<std::size_t>(phase_)] +=
      std::max(0.0, total - child_seconds_);
  slot.cur_phase.store(prev_tag_, std::memory_order_relaxed);
  t_phase_top = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += total;
}

PhaseScope* PhaseScope::suspend() {
  PhaseScope* top = t_phase_top;
  if (top == nullptr) return nullptr;
  t_phase_top = nullptr;
  const double now = host_seconds();
  for (PhaseScope* s = top; s != nullptr; s = s->parent_) s->paused_at_ = now;
  return top;
}

void PhaseScope::resume(PhaseScope* top) {
  t_phase_top = top;
  if (top == nullptr) return;
  const double now = host_seconds();
  for (PhaseScope* s = top; s != nullptr; s = s->parent_)
    s->paused_seconds_ += now - s->paused_at_;
  // Re-publish the innermost phase for the sampler (the dispatch hook just
  // stamped kEngine on this shard's slot).
  top->prof_->slot(t_worker_shard)
      .cur_phase.store(static_cast<std::uint8_t>(top->phase_),
                       std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Profiler
// --------------------------------------------------------------------------

Profiler::Profiler(ProfilerOptions opts) : opts_(opts) {}

Profiler::~Profiler() { stop_sampling(); }

void Profiler::bind_shards(int nshards) {
  int cur = nshards_.load(std::memory_order_acquire);
  while (nshards > cur &&
         !nshards_.compare_exchange_weak(cur, nshards,
                                         std::memory_order_acq_rel)) {
  }
}

void Profiler::lock_acquire(std::mutex& m, LockClass c) {
  LockStats& st = locks_[static_cast<std::size_t>(c)];
  st.acquisitions.fetch_add(1, std::memory_order_relaxed);
  if (m.try_lock()) return;
  const double t0 = host_seconds();
  m.lock();
  const double waited = host_seconds() - t0;
  st.contended.fetch_add(1, std::memory_order_relaxed);
  st.wait_ns.fetch_add(static_cast<std::uint64_t>(waited * 1e9),
                       std::memory_order_relaxed);
}

void Profiler::note_epoch(std::uint64_t epoch,
                          const std::vector<std::uint32_t>& depth) {
  // Planner-only: every worker is parked on the epoch barrier, so plain
  // writes to any slot are exclusive here. This hook's own cost lands in
  // the self-measured overhead counter, not in plan_seconds semantics.
  const double t0 = host_seconds();
  ++epochs_planned_total_;
  for (std::size_t s = 0; s < depth.size(); ++s) {
    ShardSlot& sl = slot(static_cast<int>(s));
    sl.ready_depth_sum += depth[s];
    sl.ready_depth_max = std::max<std::uint64_t>(sl.ready_depth_max, depth[s]);
  }
  cur_epoch_.store(epoch, std::memory_order_relaxed);
  if (epoch_series_.size() >= opts_.max_epoch_samples) {
    ++epoch_samples_dropped_;
  } else {
    EpochSample es;
    es.t = t0;
    es.epoch = epoch;
    es.depth = depth;
    epoch_series_.push_back(std::move(es));
  }
  add_self_seconds(host_seconds() - t0);
}

// --------------------------------------------------------------------------
// Sampler
// --------------------------------------------------------------------------

void Profiler::start_sampling() {
  const std::lock_guard<std::mutex> lock(sampler_m_);
  if (sampling_) return;
  sampling_ = true;
  sampler_stop_ = false;
  sampler_ = std::thread([this] { sampler_loop(); });
}

void Profiler::stop_sampling() {
  {
    const std::lock_guard<std::mutex> lock(sampler_m_);
    if (!sampling_) return;
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  sampler_.join();
  const std::lock_guard<std::mutex> lock(sampler_m_);
  sampling_ = false;
}

void Profiler::sampler_loop() {
  const auto interval = std::chrono::microseconds(opts_.sample_interval_us);
  std::unique_lock<std::mutex> lock(sampler_m_);
  while (!sampler_stop_) {
    sampler_cv_.wait_for(lock, interval);
    if (sampler_stop_) break;
    const double t0 = host_seconds();
    ++sampler_ticks_;
    const int n = std::min(nshards_.load(std::memory_order_acquire),
                           kMaxShards);
    const std::uint64_t epoch = cur_epoch_.load(std::memory_order_relaxed);
    if (sampler_ticks_ == 1 || epoch < epoch_sampled_min_)
      epoch_sampled_min_ = epoch;
    epoch_sampled_max_ = std::max(epoch_sampled_max_, epoch);
    for (int s = 0; s < std::max(n, 1); ++s) {
      const ShardSlot& sl = slots_[static_cast<std::size_t>(s)];
      const int fiber = sl.cur_fiber.load(std::memory_order_relaxed);
      const auto tag = static_cast<Phase>(
          sl.cur_phase.load(std::memory_order_relaxed));
      char stack[96];
      if (fiber >= 0) {
        std::snprintf(stack, sizeof(stack), "shard_%d;rank_%d;%s", s, fiber,
                      phase_name(tag));
      } else {
        std::snprintf(stack, sizeof(stack), "shard_%d;scheduler;%s", s,
                      phase_name(tag));
      }
      ++folded_[stack];
      samples_.fetch_add(1, std::memory_order_relaxed);
    }
    add_self_seconds(host_seconds() - t0);
  }
}

// --------------------------------------------------------------------------
// Export
// --------------------------------------------------------------------------

void Profiler::to_json(support::json::Writer& w) {
  const double t0 = host_seconds();
  const int n = std::max(1, std::min(nshards_.load(std::memory_order_acquire),
                                     kMaxShards));

  // Aggregate phase totals and per-shard derived "engine" time (dispatch
  // time not claimed by any instrumented scope).
  std::array<double, static_cast<std::size_t>(Phase::kCount)> agg{};
  std::vector<double> engine_derived(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < n; ++s) {
    const ShardSlot& sl = slots_[static_cast<std::size_t>(s)];
    double scoped = 0.0;
    for (std::size_t p = 0; p < agg.size(); ++p) {
      agg[p] += sl.phase_seconds[p];
      scoped += sl.phase_seconds[p];
    }
    engine_derived[static_cast<std::size_t>(s)] =
        std::max(0.0, sl.dispatch_seconds - scoped);
    agg[static_cast<std::size_t>(Phase::kEngine)] +=
        engine_derived[static_cast<std::size_t>(s)];
  }

  w.begin_object();
  w.member("schema", "chameleon.prof.v1");
  w.member("compiled_in", kCompiledIn);
  w.member("sample_interval_us",
           static_cast<double>(opts_.sample_interval_us));

  w.key("shards");
  w.begin_array();
  for (int s = 0; s < n; ++s) {
    const ShardSlot& sl = slots_[static_cast<std::size_t>(s)];
    w.begin_object();
    w.member("shard", static_cast<double>(s));
    w.member("barrier_wait_seconds", sl.barrier_wait_seconds);
    w.member("plan_seconds", sl.plan_seconds);
    w.member("dispatch_seconds", sl.dispatch_seconds);
    w.member("epochs_planned", static_cast<double>(sl.epochs_planned));
    w.member("dispatches", static_cast<double>(sl.dispatches));
    w.member("wake_tokens", static_cast<double>(sl.wake_tokens));
    w.member("ready_depth_sum", static_cast<double>(sl.ready_depth_sum));
    w.member("ready_depth_max", static_cast<double>(sl.ready_depth_max));
    w.key("phases");
    w.begin_object();
    for (std::size_t p = 0; p < sl.phase_seconds.size(); ++p) {
      const auto ph = static_cast<Phase>(p);
      if (ph == Phase::kIdle) continue;
      const double v = ph == Phase::kEngine
                           ? engine_derived[static_cast<std::size_t>(s)]
                           : sl.phase_seconds[p];
      w.member(phase_name(ph), v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("locks");
  w.begin_array();
  for (std::size_t c = 0; c < locks_.size(); ++c) {
    const LockStats& st = locks_[c];
    w.begin_object();
    w.member("name", lock_class_name(static_cast<LockClass>(c)));
    w.member("acquisitions", static_cast<double>(
                                 st.acquisitions.load(std::memory_order_acquire)));
    w.member("contended",
             static_cast<double>(st.contended.load(std::memory_order_acquire)));
    w.member("wait_seconds",
             static_cast<double>(st.wait_ns.load(std::memory_order_acquire)) *
                 1e-9);
    w.end_object();
  }
  w.end_array();

  w.key("phases");
  w.begin_object();
  for (std::size_t p = 0; p < agg.size(); ++p) {
    const auto ph = static_cast<Phase>(p);
    if (ph == Phase::kIdle) continue;
    w.member(phase_name(ph), agg[p]);
  }
  w.end_object();

  w.key("epochs");
  w.begin_object();
  w.member("planned", static_cast<double>(epochs_planned_total_));
  w.member("series_recorded", static_cast<double>(epoch_series_.size()));
  w.member("series_dropped", static_cast<double>(epoch_samples_dropped_));
  w.end_object();

  // Sampler output. stop_sampling() must have joined the ticker before
  // export; the mutex guards against misuse, not a live sampler.
  {
    const std::lock_guard<std::mutex> lock(sampler_m_);
    CHAM_CHECK_MSG(!sampling_, "prof: stop_sampling() before to_json()");
    w.key("samples");
    w.begin_object();
    w.member("interval_us", static_cast<double>(opts_.sample_interval_us));
    w.member("ticks", static_cast<double>(sampler_ticks_));
    w.member("total",
             static_cast<double>(samples_.load(std::memory_order_acquire)));
    w.member("epoch_min", static_cast<double>(epoch_sampled_min_));
    w.member("epoch_max", static_cast<double>(epoch_sampled_max_));
    w.key("folded");
    w.begin_array();
    for (const auto& [stack, count] : folded_) {
      w.begin_object();
      w.member("stack", stack);
      w.member("count", static_cast<double>(count));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  add_self_seconds(host_seconds() - t0);
  w.key("overhead");
  w.begin_object();
  w.member("profiling_seconds", self_seconds());
  w.end_object();

  w.end_object();
}

std::string Profiler::to_json_string(bool pretty) {
  support::json::Writer w(pretty);
  to_json(w);
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

void Profiler::export_counter_tracks(Timeline& tl) {
  const double t0 = host_seconds();
  const double origin = tl.origin_seconds();
  const int n = std::max(1, std::min(nshards_.load(std::memory_order_acquire),
                                     kMaxShards));
  for (int s = 0; s < n; ++s) {
    char name[48];
    std::snprintf(name, sizeof(name), "prof: ready_depth shard %d", s);
    tl.set_track_name(Timeline::counter_tid(s), name);
  }
  tl.set_track_name(Timeline::counter_tid(n), "prof: ready_depth total");
  for (const EpochSample& es : epoch_series_) {
    const double ts_us = (es.t - origin) * 1e6;
    double total = 0.0;
    for (std::size_t s = 0; s < es.depth.size(); ++s) {
      total += es.depth[s];
      char name[48];
      std::snprintf(name, sizeof(name), "ready_depth shard %zu", s);
      tl.counter_at(ts_us, Timeline::counter_tid(static_cast<int>(s)), name,
                    static_cast<double>(es.depth[s]));
    }
    tl.counter_at(ts_us, Timeline::counter_tid(n), "ready_depth total", total);
  }
  add_self_seconds(host_seconds() - t0);
}

}  // namespace cham::obs::prof
