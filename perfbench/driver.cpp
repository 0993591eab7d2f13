// Repository benchmark: one closed-loop iteration of one named workload.
//
// An iteration is a traced program run (engine + tracing tool + workload
// through MPI_Finalize) followed by a replay of the tool's output trace at
// the same world size. perfbench/run.py starts this program once per
// iteration, so every iteration begins with a clean peak RSS and a fresh
// process-wide rank-list intern table.
//
//   perfbench_driver --list
//   perfbench_driver --workload NAME --seed N [--traced | --setup-only]
//
// Prints one JSON object on stdout: "values" (every measured number by
// metric name), "digests" (output fingerprints the harness checks against
// perfbench/expected.json) and host facts only a compiled program knows.
//
// Untraced mode measures the end-to-end metrics with nothing in the way.
// --traced adds the per-layer split, measured from outside the library: a
// forwarding sim::Tool times every hook into per-rank slots, and the ChamProf
// profiler (no sampler thread) is installed around Engine::run only.
// --setup-only stops after constructing the engine, registry and tool, so
// the harness can sample set-up time more often than it runs iterations.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chameleon.hpp"
#include "obs/prof/profiler.hpp"
#include "replay/interp.hpp"
#include "replay/replayer.hpp"
#include "sim/engine.hpp"
#include "sim/tool.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "trace/ranklist.hpp"
#include "trace/serialize.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

using namespace cham;

namespace {

// --------------------------------------------------------------------------
// Workloads (perfbench/README.md gives the reason for each)
// --------------------------------------------------------------------------

struct Spec {
  const char* name;
  const char* workload;  ///< workloads::find_workload name
  bool scalatrace;       ///< ScalaTrace baseline instead of Chameleon
  int nprocs;
  int steps;
  int perturb_every;
  int call_frequency;
  std::size_t k;
  int threads;
  bool weak;  ///< weak scaling: per-rank problem size fixed
};

constexpr Spec kSpecs[] = {
    {"lu16k", "lu", false, 16384, 4, 0, 20, 9, 1, true},
    {"lu16k_t4", "lu", false, 16384, 4, 0, 20, 9, 4, true},
    {"lu16k_scalatrace", "lu", true, 16384, 4, 0, 20, 9, 1, true},
    {"lumod2k", "lu_mod", false, 2048, 60, 6, 1, 9, 1, false},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A "VmHWM:"-style field of /proc/self/status, in KiB.
double proc_status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0)
      return std::strtod(line.c_str() + len, nullptr);
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return support::fnv1a64(bytes.data(), bytes.size());
}

// --------------------------------------------------------------------------
// Forwarding tool: host time of every hook, per rank
// --------------------------------------------------------------------------

/// Forwards every hook to the real tool unchanged and times it. Hooks that
/// never block (every on_pre, and every on_post that is neither a marker
/// nor finalize) are summed as self time. Marker and finalize hooks can
/// block on other ranks, so they are kept only as wall intervals. Each
/// fiber writes only its own rank's slot.
class HookTimer final : public sim::Tool {
 public:
  struct alignas(64) RankSlot {
    double event_seconds = 0.0;
    std::uint64_t event_calls = 0;
    std::uint64_t app_sends = 0;
    double finalize_enter = 0.0;
    double finalize_leave = 0.0;
    std::size_t trace_bytes_at_finalize = 0;
    std::vector<std::pair<double, double>> marker_windows;
  };

  HookTimer(trace::ScalaTraceTool& inner, int nprocs)
      : inner_(inner), slots_(static_cast<std::size_t>(nprocs)) {}

  void on_init(sim::Rank rank, sim::Pmpi& pmpi) override {
    inner_.on_init(rank, pmpi);
  }
  void on_pre(sim::Rank rank, const sim::CallInfo& info,
              sim::Pmpi& pmpi) override {
    RankSlot& slot = slots_[static_cast<std::size_t>(rank)];
    if (info.op == sim::Op::kSend || info.op == sim::Op::kIsend)
      ++slot.app_sends;
    if (info.op == sim::Op::kFinalize)
      slot.trace_bytes_at_finalize = inner_.rank_trace_bytes(rank);
    const double t0 = now_seconds();
    inner_.on_pre(rank, info, pmpi);
    slot.event_seconds += now_seconds() - t0;
    ++slot.event_calls;
  }
  void on_post(sim::Rank rank, const sim::CallInfo& info,
               sim::Pmpi& pmpi) override {
    RankSlot& slot = slots_[static_cast<std::size_t>(rank)];
    const double t0 = now_seconds();
    inner_.on_post(rank, info, pmpi);
    const double t1 = now_seconds();
    if (info.op == sim::Op::kFinalize) {
      slot.finalize_enter = t0;
      slot.finalize_leave = t1;
    } else if (info.is_marker) {
      slot.marker_windows.emplace_back(t0, t1);
    } else {
      slot.event_seconds += t1 - t0;
      ++slot.event_calls;
    }
  }
  void on_stall(sim::Engine& engine) override { inner_.on_stall(engine); }

  [[nodiscard]] const std::vector<RankSlot>& slots() const { return slots_; }

 private:
  trace::ScalaTraceTool& inner_;
  std::vector<RankSlot> slots_;
};

/// Installs a profiler for one scope (none when null) and always removes
/// it, so nothing after Engine::run is profiled even if the run throws.
class ProfilerInstall {
 public:
  explicit ProfilerInstall(obs::prof::Profiler* prof) {
    obs::prof::set_profiler(prof);
  }
  ~ProfilerInstall() { obs::prof::set_profiler(nullptr); }
  ProfilerInstall(const ProfilerInstall&) = delete;
  ProfilerInstall& operator=(const ProfilerInstall&) = delete;
};

/// Length of the union of [begin, end] intervals.
double union_seconds(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double open = 0.0;
  double close = -1.0;
  for (const auto& [begin, end] : spans) {
    if (begin > close) {
      if (close > open) total += close - open;
      open = begin;
      close = end;
    } else {
      close = std::max(close, end);
    }
  }
  if (close > open) total += close - open;
  return total;
}

// --------------------------------------------------------------------------
// One iteration
// --------------------------------------------------------------------------

struct Output {
  std::map<std::string, double> values;
  std::map<std::string, std::string> digests;
};

Output run_iteration(const Spec& spec, std::uint64_t seed, bool traced,
                     bool setup_only) {
  const workloads::WorkloadInfo* info = workloads::find_workload(spec.workload);
  if (info == nullptr)
    throw std::runtime_error(std::string("unknown library workload ") +
                             spec.workload);
  workloads::WorkloadParams params;
  params.cls = 'C';
  params.timesteps = spec.steps;
  params.perturb_every = spec.perturb_every;
  params.weak = spec.weak;
  params.seed = seed;
  const int P = spec.nprocs;

  Output out;
  auto& v = out.values;

  // --- setup --------------------------------------------------------------
  const double t_setup = now_seconds();
  auto engine = std::make_unique<sim::Engine>(
      sim::EngineOptions{.nprocs = P, .threads = spec.threads});
  const double t_engine = now_seconds();
  auto stacks = std::make_unique<trace::CallSiteRegistry>(P);
  std::unique_ptr<trace::ScalaTraceTool> tool;
  core::ChameleonTool* cham = nullptr;
  if (spec.scalatrace) {
    tool = std::make_unique<trace::ScalaTraceTool>(P, stacks.get());
  } else {
    core::ChameleonConfig config;
    config.k = spec.k;
    config.call_frequency = spec.call_frequency;
    auto owned = std::make_unique<core::ChameleonTool>(P, stacks.get(), config);
    cham = owned.get();
    tool = std::move(owned);
  }
  const double t_tool = now_seconds();
  v["setup_s"] = t_tool - t_setup;
  v["setup.engine_s"] = t_engine - t_setup;
  v["setup.tool_s"] = t_tool - t_engine;
  v["mem.rss_after_setup_kib_per_rank"] = proc_status_kib("VmHWM:") / P;
  if (setup_only) return out;

  // --- traced program run -------------------------------------------------
  std::optional<HookTimer> hooks;
  std::optional<obs::prof::Profiler> prof;
  if (traced) {
    hooks.emplace(*tool, P);
    engine->set_tool(&*hooks);
    prof.emplace();
  } else {
    engine->set_tool(tool.get());
  }
  double t_run = 0.0;
  double t_done = 0.0;
  {
    const ProfilerInstall installed(prof ? &*prof : nullptr);
    t_run = now_seconds();
    engine->run([&](sim::Mpi& mpi) { info->run(mpi, *stacks, params); });
    t_done = now_seconds();
  }
  v["trace_s"] = t_done - t_run;
  v["trace_rss_kib_per_rank"] = proc_status_kib("VmHWM:") / P;

  // --- outputs and exact counts -------------------------------------------
  const std::vector<trace::TraceNode>& output =
      cham != nullptr ? cham->online_trace() : tool->global_trace();
  const double t_encode = now_seconds();
  const std::vector<std::uint8_t> wire = trace::encode_trace(output);
  v["serialize.encode_s"] = now_seconds() - t_encode;
  v["trace_bytes"] = static_cast<double>(wire.size());
  out.digests["structure"] = hex64(digest(trace::encode_trace_structure(output)));
  v["replay.expanded_pairs"] =
      static_cast<double>(replay::expanded_event_rank_pairs(output));

  v["sim.messages"] = static_cast<double>(engine->messages_sent());
  v["sim.bytes_sent"] = static_cast<double>(engine->bytes_sent());
  v["sim.collectives"] = static_cast<double>(engine->collectives_run());

  const trace::PerfCounters& perf = tool->perf_counters();
  v["trace.events_recorded"] = static_cast<double>(tool->events_recorded_total());
  v["trace.fold_windows_tested"] = static_cast<double>(perf.fold_windows_tested);
  v["trace.folds"] = static_cast<double>(perf.folds_performed);
  v["trace.fold_hit_ratio"] =
      perf.fold_windows_tested == 0
          ? 0.0
          : static_cast<double>(perf.folds_performed) /
                static_cast<double>(perf.fold_windows_tested);
  v["trace.merge_ops"] = static_cast<double>(tool->merge_operations());
  v["trace.merge_bytes"] = static_cast<double>(tool->merge_bytes());
  v["trace.merge_zip_hits"] = static_cast<double>(perf.merge_zip_hits);
  v["trace.merge_zip_ratio"] =
      tool->merge_operations() == 0
          ? 0.0
          : static_cast<double>(perf.merge_zip_hits) /
                static_cast<double>(tool->merge_operations());
  v["serialize.bytes_encoded"] = static_cast<double>(perf.bytes_encoded);
  v["serialize.bytes_decoded"] = static_cast<double>(perf.bytes_decoded);
  const trace::RankListInternStats intern = trace::ranklist_intern_stats();
  v["trace.intern_entries"] = static_cast<double>(intern.entries);
  v["mem.intern_arena_kib"] = static_cast<double>(intern.arena_bytes) / 1024.0;

  // ScalaTrace has no marker protocol and no cluster table: its protocol
  // counts are reported as zero so every workload carries every metric.
  for (const char* name :
       {"core.markers_processed", "core.epochs_c", "core.epochs_l",
        "core.epochs_at", "cluster.clusters", "cluster.table_bytes"})
    v[name] = 0.0;
  if (cham != nullptr) {
    v["core.markers_processed"] =
        static_cast<double>(cham->marker_calls_processed());
    v["core.epochs_c"] =
        static_cast<double>(cham->state_count(core::MarkerState::kClustering));
    v["core.epochs_l"] =
        static_cast<double>(cham->state_count(core::MarkerState::kLead));
    v["core.epochs_at"] =
        static_cast<double>(cham->state_count(core::MarkerState::kAllTracing));
    v["cluster.clusters"] = static_cast<double>(cham->clusters().total_clusters());
    const std::vector<std::uint8_t> table = cham->clusters().encode();
    v["cluster.table_bytes"] = static_cast<double>(table.size());
    out.digests["table"] = hex64(digest(table));
  }

  if (traced) {
    // Per-event path: summed and per-call host time inside the
    // non-blocking hooks; windows for the blocking ones.
    double event_s = 0.0;
    std::uint64_t event_calls = 0;
    std::uint64_t app_sends = 0;
    double fin_first = 0.0;
    double fin_last = 0.0;
    double rank_trace_bytes = 0.0;
    std::vector<std::pair<double, double>> markers;
    for (const HookTimer::RankSlot& slot : hooks->slots()) {
      event_s += slot.event_seconds;
      event_calls += slot.event_calls;
      app_sends += slot.app_sends;
      rank_trace_bytes += static_cast<double>(slot.trace_bytes_at_finalize);
      if (fin_first == 0.0 || slot.finalize_enter < fin_first)
        fin_first = slot.finalize_enter;
      fin_last = std::max(fin_last, slot.finalize_leave);
      markers.insert(markers.end(), slot.marker_windows.begin(),
                     slot.marker_windows.end());
    }
    v["trace.event_s"] = event_s;
    v["trace.event_calls"] = static_cast<double>(event_calls);
    v["trace.event_ns"] =
        event_calls == 0 ? 0.0 : event_s * 1e9 / static_cast<double>(event_calls);
    v["trace.finalize_window_s"] = fin_last - fin_first;
    v["core.marker_window_s"] = union_seconds(std::move(markers));
    v["core.tool_messages"] =
        static_cast<double>(engine->messages_sent() - app_sends);
    v["mem.rank_trace_kib_sum"] = rank_trace_bytes / 1024.0;

    // Scheduler and phase telemetry from ChamProf.
    const int shards = std::max(1, prof->shards_bound());
    double dispatch = 0.0;
    double dispatch_max = 0.0;
    double plan = 0.0;
    double barrier = 0.0;
    double epochs = 0.0;
    double depth_sum = 0.0;
    std::array<double, static_cast<std::size_t>(obs::prof::Phase::kCount)>
        phase{};
    for (int s = 0; s < shards; ++s) {
      const obs::prof::ShardSlot& slot = prof->slot(s);
      dispatch += slot.dispatch_seconds;
      dispatch_max = std::max(dispatch_max, slot.dispatch_seconds);
      plan += slot.plan_seconds;
      barrier += slot.barrier_wait_seconds;
      epochs += static_cast<double>(slot.epochs_planned);
      depth_sum += static_cast<double>(slot.ready_depth_sum);
      for (std::size_t p = 0; p < phase.size(); ++p)
        phase[p] += slot.phase_seconds[p];
    }
    const auto phase_s = [&](obs::prof::Phase p) {
      return phase[static_cast<std::size_t>(p)];
    };
    v["sim.dispatch_s"] = dispatch;
    v["sim.plan_s"] = plan;
    v["sim.epochs"] = epochs;
    v["sim.ready_depth_avg"] = epochs == 0.0 ? 0.0 : depth_sum / (epochs * shards);
    v["sim.barrier_wait_share"] =
        barrier / (static_cast<double>(shards) * (t_done - t_run));
    v["sim.load_balance"] =
        dispatch_max == 0.0 ? 0.0 : dispatch / shards / dispatch_max;
    std::uint64_t acquired = 0;
    std::uint64_t contended = 0;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(obs::prof::LockClass::kCount); ++c) {
      const obs::prof::LockStats& ls =
          prof->lock_stats(static_cast<obs::prof::LockClass>(c));
      acquired += ls.acquisitions.load();
      contended += ls.contended.load();
    }
    v["sim.lock_acquisitions"] = static_cast<double>(acquired);
    v["sim.lock_contended_ratio"] =
        acquired == 0 ? 0.0
                      : static_cast<double>(contended) /
                            static_cast<double>(acquired);

    v["trace.radix_merge_s"] = phase_s(obs::prof::Phase::kRadixMerge);
    v["trace.inter_merge_s"] = phase_s(obs::prof::Phase::kInterMerge);
    v["cluster.clustering_s"] = phase_s(obs::prof::Phase::kClustering);
    v["core.lead_merge_s"] = phase_s(obs::prof::Phase::kLeadMerge);
    v["core.fold_s"] = phase_s(obs::prof::Phase::kFold);
    double phases = 0.0;
    for (const double seconds : phase) phases += seconds;
    // Busy time of the run: the Engine::run span on one thread; summed
    // shard dispatch and planning when shards run in parallel.
    const double busy =
        shards == 1 ? t_done - t_run : std::max(t_done - t_run, dispatch + plan);
    v["sim.engine_self_s"] = busy - event_s - phases;
    // Share of the shards' wall time ChamProf accounts for (dispatch,
    // planning, barrier wait); the harness bounds it.
    v["bench.prof_coverage"] =
        (dispatch + plan + barrier) / (static_cast<double>(shards) * (t_done - t_run));
  }

  // --- replay of the output -----------------------------------------------
  const double reference_vtime = engine->max_vtime();
  engine.reset();
  hooks.reset();
  tool.reset();
  stacks.reset();

  const double t_decode = now_seconds();
  const std::vector<trace::TraceNode> nodes = trace::decode_trace(wire);
  const double t_replay = now_seconds();
  const replay::ReplayResult replayed =
      replay::replay_trace(nodes, {.nprocs = P});
  const double t_replayed = now_seconds();
  v["replay_s"] = t_replayed - t_decode;
  v["serialize.decode_s"] = t_replay - t_decode;
  v["replay.run_s"] = t_replayed - t_replay;
  v["replay_acc"] = replay::replay_accuracy(reference_vtime, replayed.vtime);
  v["replay.events"] = static_cast<double>(replayed.events_replayed);
  v["replay.messages"] = static_cast<double>(replayed.messages);
  v["replay.collectives"] = static_cast<double>(replayed.collectives);
  v["replay.approx_events"] = static_cast<double>(replayed.cancelled_recvs +
                                                  replayed.forced_collectives);
  return out;
}

void print_output(const Spec& spec, bool traced, const Output& out) {
  support::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("workload", spec.name);
  w.member("traced", traced);
  w.member("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.member("champrof_compiled_in", obs::prof::kCompiledIn);
#if defined(__clang__)
  w.member("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.member("compiler", "gcc " __VERSION__);
#else
  w.member("compiler", "unknown");
#endif
  w.key("values").begin_object();
  for (const auto& [name, value] : out.values) {
    // Full precision: timings must carry every digit they were measured with.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    w.key(name).raw(buf);
  }
  w.end_object();
  w.key("digests").begin_object();
  for (const auto& [name, value] : out.digests) w.member(name, value);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --list\n"
               "       perfbench_driver --workload NAME --seed N "
               "[--traced | --setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Spec& spec : kSpecs) std::printf("%s\n", spec.name);
      return 0;
    }
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || !seed.has_value()) return usage();
  try {
    print_output(*spec, traced,
                 run_iteration(*spec, *seed, traced, setup_only));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", spec->name, e.what());
    return 1;
  }
  return 0;
}
