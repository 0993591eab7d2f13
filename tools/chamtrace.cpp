// chamtrace — command-line front end for the Chameleon tracing library.
//
//   chamtrace list
//       List the built-in benchmark workloads.
//   chamtrace run --workload lu --procs 64 [--tool chameleon|scalatrace|
//       acurdion|none] [--k K] [--freq N] [--class A-D] [--steps N]
//       [--auto-marker] [--fault plan] [--fault-seed N] [--sched-seed N]
//       [--threads N] [--out trace.bin] [--clusters-out c.bin] [--text]
//       [--perf]
//       [--checkpoint-dir d] [--snapshot-every N] [--resume d]
//       [--timeline t.json] [--metrics-out m.json] [--log-json]
//       Trace a workload and write the global/online trace. --fault takes a
//       fault-plan file, or an inline ';'-separated plan (docs/FAULTS.md);
//       the run then exercises the fault-tolerant protocol and the merged
//       trace may contain GAP nodes for intervals lost with dead leads.
//       --checkpoint-dir journals every marker epoch and periodically folds
//       the journal into an atomic snapshot (docs/DURABILITY.md); --resume
//       recovers from such a directory and continues the interrupted run —
//       every other run option is taken from the stored manifest.
//       --timeline records what the runtime itself did as Chrome
//       trace-event JSON (open in Perfetto); --timeline-flush N streams
//       the file incrementally every N events instead of buffering;
//       --metrics-out exports the ChamScope metrics registry;
//       --profile[=FILE] installs the ChamProf host-time profiler
//       (scheduler telemetry + sampling profiler) and writes the
//       chameleon.prof.v1 document (default prof.json); --tool none runs
//       the bare simulator (useful for timeline-only runs and overhead
//       baselines).
//   chamtrace report --workload lu --procs 64 [--format text|csv|json] ...
//       Run the workload under Chameleon with epoch recording on and print
//       the epoch-by-epoch cluster-evolution report (cluster count, leads,
//       membership churn) plus the per-state trace-memory table.
//   chamtrace race --workload lu --procs 64 [run options] [--seeds N]
//       [--no-audit] [--json r.json]
//       ChamRace: run the workload with the happens-before analyzer
//       installed on the annotation stream and report every access pair
//       unordered by the modelled sync edges (docs/RACE.md), then audit
//       determinism by replaying under N shuffled scheduler seeds and
//       diffing per-epoch wire-image digests. Exit 0 only when the run is
//       conflict-free AND schedule-independent. --json writes the
//       chameleon.race.v1 document.
//   chamtrace profile prof.json [--folded]
//       Render a saved chameleon.prof.v1 profile as a per-shard imbalance
//       summary (barrier-wait share, phase breakdown, busiest locks), or
//       with --folded as folded-stack lines for flamegraph tooling.
//   chamtrace validate [--timeline t.json] [--metrics m.json] [--race r.json]
//       [--prof p.json]
//       Structurally validate ChamScope output files.
//   chamtrace show trace.bin
//       Print a trace file in the human-readable PRSD form plus statistics.
//   chamtrace replay trace.bin --procs 64
//       Replay a trace at the given scale and report virtual time.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/race/analyzer.hpp"
#include "analysis/race/annotate.hpp"
#include "analysis/race/determinism.hpp"
#include "core/acurdion.hpp"
#include "core/chameleon.hpp"
#include "durable/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/prof/summary.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "obs/validate.hpp"
#include "replay/interp.hpp"
#include "replay/replayer.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/mpi.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "trace/perf.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

using namespace cham;

namespace {

int usage() {
  std::fputs(
      "usage:\n"
      "  chamtrace list\n"
      "  chamtrace run --workload <name> --procs <P> [--tool chameleon|"
      "scalatrace|acurdion|none]\n"
      "               [--k <K>] [--freq <N>] [--class A|B|C|D] [--steps <N>]"
      " [--auto-marker]\n"
      "               [--fault <plan-file-or-inline>] [--fault-seed <N>]"
      " [--sched-seed <N>]\n"
      "               [--threads <N>]\n"
      "               [--checkpoint-dir <dir>] [--snapshot-every <N>]\n"
      "               [--out <file>] [--clusters-out <file>] [--text]"
      " [--perf]\n"
      "               [--timeline <file>] [--timeline-flush <N>]"
      " [--metrics-out <file>]\n"
      "               [--profile[=<file>]] [--log-json]\n"
      "  chamtrace run --resume <dir> [--out <file>] [--clusters-out <file>]"
      " [output options]\n"
      "  chamtrace report --workload <name> --procs <P> [--format text|csv|"
      "json] [--out <file>]\n"
      "               [run options]\n"
      "  chamtrace race --workload <name> --procs <P> [run options]"
      " [--seeds <N>] [--no-audit]\n"
      "               [--json <file>]\n"
      "  chamtrace profile <prof-file> [--folded]\n"
      "  chamtrace validate [--timeline <file>] [--metrics <file>]"
      " [--race <file>] [--prof <file>]\n"
      "  chamtrace show <trace-file>\n"
      "  chamtrace replay <trace-file> --procs <P>\n",
      stderr);
  return 2;
}

/// Minimal flag parser: --name value / --name (boolean).
class Args {
 public:
  Args(int argc, char** argv, int from) {
    for (int i = from; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }
  std::optional<std::string> value(const std::string& flag) const {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i)
      if (tokens_[i] == flag) return tokens_[i + 1];
    return std::nullopt;
  }
  bool has(const std::string& flag) const {
    for (const auto& token : tokens_)
      if (token == flag) return true;
    return false;
  }
  /// Flag with an optional value: `--flag`, `--flag v`, or `--flag=v`.
  /// Absent -> nullopt; present without a value -> `fallback`.
  std::optional<std::string> value_or(const std::string& flag,
                                      const std::string& fallback) const {
    const std::string inline_form = flag + "=";
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i].rfind(inline_form, 0) == 0)
        return tokens_[i].substr(inline_form.size());
      if (tokens_[i] != flag) continue;
      if (i + 1 < tokens_.size() && tokens_[i + 1].rfind("--", 0) != 0)
        return tokens_[i + 1];
      return fallback;
    }
    return std::nullopt;
  }
  std::optional<std::string> positional() const {
    for (const auto& token : tokens_)
      if (token.rfind("--", 0) != 0) return token;
    return std::nullopt;
  }

 private:
  std::vector<std::string> tokens_;
};

int cmd_list() {
  std::printf("%-8s %-4s %-6s %s\n", "name", "K", "freq", "description");
  for (const auto& info : workloads::all_workloads()) {
    std::printf("%-8s %-4zu %-6d %s\n", std::string(info.name).c_str(),
                info.default_k, info.default_freq,
                std::string(info.description).c_str());
  }
  return 0;
}

/// --fault accepts either a fault-plan file or an inline ';'-separated
/// plan string ("crash rank=3 marker=2; drop src=1 dest=2 prob=0.5").
sim::FaultPlan load_fault_plan(const std::string& arg, std::uint64_t seed) {
  std::ifstream in(arg);
  if (in) {
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    return sim::FaultPlan::parse(text, seed);
  }
  return sim::FaultPlan::parse(arg, seed);
}

std::vector<trace::TraceNode> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::system_error(errno != 0 ? errno : ENOENT,
                            std::generic_category(), "cannot open " + path);
  std::vector<std::uint8_t> bytes(std::istreambuf_iterator<char>(in), {});
  return trace::decode_trace(bytes);
}

bool write_file(const std::string& path, std::string_view contents) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return static_cast<bool>(file);
}

void print_stats(const std::vector<trace::TraceNode>& nodes) {
  std::size_t leaves = 0;
  std::uint64_t expanded = 0;
  for (const auto& node : nodes) {
    leaves += node.leaf_count();
    expanded += node.expanded_count();
  }
  std::printf("# top-level nodes: %zu, compressed events: %zu, expanded "
              "events: %llu\n",
              nodes.size(), leaves,
              static_cast<unsigned long long>(expanded));
  std::printf("# event-rank pairs on replay: %llu, encoded size: %zu bytes\n",
              static_cast<unsigned long long>(
                  replay::expanded_event_rank_pairs(nodes)),
              trace::encode_trace(nodes).size());
}

// --------------------------------------------------------------------------
// ChamScope wiring
// --------------------------------------------------------------------------

/// Owns the timeline/metrics/profiler instances for one run, installs the
/// process globals the runtime hooks consult, and tears everything down
/// (including the log observer and the sampler thread) on scope exit, so a
/// thrown workload cannot leave a dangling global behind.
class Observability {
 public:
  explicit Observability(const Args& args)
      : profile_path_(args.value_or("--profile", "prof.json")) {
    if (const auto path = args.value("--timeline")) {
      timeline_.emplace();
      // --timeline-flush N: stream events to the file as they accumulate
      // instead of buffering the whole run in memory.
      if (const auto every = args.value("--timeline-flush"))
        timeline_->set_flush(*path, std::stoul(*every));
      obs::set_timeline(&*timeline_);
      // Structured log records double as timeline instants so warnings
      // line up with the spans that produced them.
      support::set_log_observer(
          [tl = &*timeline_](const support::LogRecord& rec) {
            const int tid = rec.rank >= 0 ? obs::Timeline::rank_tid(rec.rank)
                                          : obs::Timeline::kSchedulerTid;
            tl->instant(
                tid, std::string("log.") + support::log_level_name(rec.level),
                "log", {obs::arg_str("msg", rec.message)});
          });
    }
    if (args.value("--metrics-out")) {
      metrics_.emplace();
      obs::set_metrics(&*metrics_);
    }
    if (profile_path_) {
      profiler_ = std::make_unique<obs::prof::Profiler>();
      if (obs::prof::kCompiledIn) {
        obs::prof::set_profiler(profiler_.get());
        profiler_->start_sampling();
      } else {
        CHAM_WARN() << "--profile requested but the ChamProf hooks were "
                       "compiled out (-DCHAMELEON_PROF=OFF); the report will "
                       "carry compiled_in:false and empty telemetry";
      }
    }
  }
  ~Observability() {
    if (profiler_) {
      obs::prof::set_profiler(nullptr);
      profiler_->stop_sampling();
    }
    support::set_log_observer(nullptr);
    obs::set_timeline(nullptr);
    obs::set_metrics(nullptr);
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] obs::Timeline* timeline() {
    return timeline_ ? &*timeline_ : nullptr;
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return metrics_ ? &*metrics_ : nullptr;
  }
  [[nodiscard]] obs::prof::Profiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const std::optional<std::string>& profile_path() const {
    return profile_path_;
  }

 private:
  std::optional<std::string> profile_path_;
  std::optional<obs::Timeline> timeline_;
  std::optional<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::prof::Profiler> profiler_;
};

/// Everything needed to run one workload under one tool. The tracer
/// pointer is null for --tool none (bare simulator, no tracing tool) —
/// every consumer of trace output must check it.
struct WorkloadRun {
  const workloads::WorkloadInfo* info = nullptr;
  int procs = 0;
  std::string tool_name;
  workloads::WorkloadParams params;
  core::ChameleonConfig config;

  std::optional<sim::Engine> engine;
  std::optional<trace::CallSiteRegistry> stacks;
  std::optional<sim::FaultInjector> injector;
  /// ChamDurable: set by --checkpoint-dir / --resume; the config holds a
  /// non-owning pointer, so these must outlive the tool below them.
  std::unique_ptr<durable::Checkpointer> checkpointer;
  std::optional<durable::RecoveredState> recovered;
  std::optional<trace::ScalaTraceTool> scalatrace;
  std::optional<core::ChameleonTool> chameleon;
  std::optional<core::AcurdionTool> acurdion;
  /// The selected tool viewed through the common tracer base; null when
  /// tool_name == "none".
  trace::ScalaTraceTool* tracer = nullptr;
};

/// Parse the shared run/report options and construct (but do not run) the
/// engine + tool. Returns 0 on success, a process exit code otherwise.
int setup_run(const Args& args, WorkloadRun& run) {
  const auto workload_name = args.value("--workload");
  const auto procs = args.value("--procs");
  if (!workload_name || !procs) return usage();
  run.info = workloads::find_workload(*workload_name);
  if (run.info == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try: chamtrace list)\n",
                 workload_name->c_str());
    return 2;
  }
  run.procs = std::stoi(*procs);
  run.tool_name = args.value("--tool").value_or("chameleon");

  run.params.cls = args.value("--class").value_or("D")[0];
  run.params.timesteps = std::stoi(args.value("--steps").value_or("0"));

  run.config.k = static_cast<std::size_t>(std::stoul(
      args.value("--k").value_or(std::to_string(run.info->default_k))));
  run.config.call_frequency = std::stoi(
      args.value("--freq").value_or(std::to_string(run.info->default_freq)));
  run.config.auto_marker = args.has("--auto-marker");

  run.engine.emplace(sim::EngineOptions{
      .nprocs = run.procs,
      .sched_seed = std::stoull(args.value("--sched-seed").value_or("0")),
      .threads = std::stoi(args.value("--threads").value_or("1"))});
  run.stacks.emplace(run.procs);
  if (const auto fault = args.value("--fault")) {
    const std::uint64_t seed =
        std::stoull(args.value("--fault-seed").value_or("0"));
    run.injector.emplace(load_fault_plan(*fault, seed));
    run.engine->set_fault_injector(&*run.injector);
    run.engine->set_site_probe([stacks = &*run.stacks](sim::Rank rank) {
      const auto& frames = stacks->stack(rank).frames();
      return frames.empty() ? 0 : frames.back();
    });
  }
  if (run.tool_name == "scalatrace") {
    run.scalatrace.emplace(run.procs, &*run.stacks);
    run.tracer = &*run.scalatrace;
  } else if (run.tool_name == "acurdion") {
    run.acurdion.emplace(run.procs, &*run.stacks, run.config);
    run.tracer = &*run.acurdion;
  } else if (run.tool_name == "chameleon") {
    run.chameleon.emplace(run.procs, &*run.stacks, run.config);
    run.tracer = &*run.chameleon;
  } else if (run.tool_name != "none") {
    std::fprintf(stderr, "unknown tool '%s'\n", run.tool_name.c_str());
    return 2;
  }
  if (run.tracer != nullptr) run.engine->set_tool(run.tracer);
  return 0;
}

void execute(WorkloadRun& run) {
  run.engine->run(
      [&](sim::Mpi& mpi) { run.info->run(mpi, *run.stacks, run.params); });
}

// --------------------------------------------------------------------------
// ChamDurable wiring
// --------------------------------------------------------------------------

/// Everything a later `--resume` needs to re-execute this run
/// deterministically, captured from the fully resolved options.
durable::RunManifest make_manifest(const Args& args, const WorkloadRun& run) {
  durable::RunManifest m;
  m.workload = std::string(run.info->name);
  m.cls = std::string(1, run.params.cls);
  m.timesteps = run.params.timesteps;
  m.procs = run.procs;
  m.k = run.config.k;
  m.call_frequency = run.config.call_frequency;
  m.max_window = run.config.max_window;
  m.policy = static_cast<std::uint8_t>(run.config.policy);
  m.seed = run.config.seed;
  m.degrade_fraction = run.config.degrade_fraction;
  m.auto_marker = run.config.auto_marker;
  if (run.injector) {
    m.fault_plan = run.injector->plan().to_string();
    m.fault_seed = run.injector->plan().seed;
  }
  m.sched_seed = std::stoull(args.value("--sched-seed").value_or("0"));
  m.snapshot_every = std::stoi(args.value("--snapshot-every").value_or("8"));
  return m;
}

/// Crash faults keyed on call/marker/site indices fire identically during
/// the fast-forward replay, but toolop crashes and message drops hang off
/// tool communication the fast-forward skips — resuming such a plan would
/// diverge from the original run, so refuse it up front.
bool plan_replayable_on_resume(const sim::FaultPlan& plan) {
  for (const auto& spec : plan.faults) {
    if (spec.kind == sim::FaultKind::kDrop) return false;
    if (spec.kind == sim::FaultKind::kCrash && spec.at_toolop != 0)
      return false;
  }
  return true;
}

durable::CheckpointerOptions checkpointer_options(const Args& args,
                                                 std::int32_t snapshot_every) {
  durable::CheckpointerOptions opts;
  opts.snapshot_every = snapshot_every;
  opts.kill_after_epoch =
      std::stoull(args.value("--kill-at-epoch").value_or("0"));
  return opts;
}

/// `run --resume <dir>`: recover the durable state and rebuild the whole
/// run from the stored manifest (CLI workload/config flags are ignored —
/// the resumed run must replay the original one). Leaves run.engine unset
/// when the recovered run had already finalized: there is nothing left to
/// execute and the caller serves outputs straight from the recovery.
int setup_resume(const Args& args, const std::string& dir, WorkloadRun& run) {
  run.recovered.emplace(durable::recover(dir));
  const durable::RunManifest& m = run.recovered->manifest;
  run.info = workloads::find_workload(m.workload);
  if (run.info == nullptr) {
    std::fprintf(stderr, "checkpoint manifest names unknown workload '%s'\n",
                 m.workload.c_str());
    return 2;
  }
  std::optional<sim::FaultPlan> plan;
  if (!m.fault_plan.empty()) {
    plan = sim::FaultPlan::parse(m.fault_plan, m.fault_seed);
    if (!plan_replayable_on_resume(*plan)) {
      std::fprintf(stderr,
                   "cannot resume: the run's fault plan contains toolop "
                   "crashes or message drops, which do not replay "
                   "identically through the fast-forward "
                   "(docs/DURABILITY.md)\n");
      return 2;
    }
  }
  std::printf(
      "recovered %s/%d from %s: epoch %llu (snapshot %llu + %llu journal "
      "epoch(s)%s)%s\n",
      m.workload.c_str(), m.procs, dir.c_str(),
      static_cast<unsigned long long>(run.recovered->epoch),
      static_cast<unsigned long long>(run.recovered->snapshot_epoch),
      static_cast<unsigned long long>(run.recovered->journal_epochs_replayed),
      run.recovered->journal_torn_tail ? ", torn tail dropped" : "",
      run.recovered->finalized ? ", already finalized" : "");
  if (run.recovered->finalized) return 0;

  run.procs = m.procs;
  run.tool_name = "chameleon";
  run.params.cls = m.cls.empty() ? 'D' : m.cls[0];
  run.params.timesteps = m.timesteps;
  run.config.k = m.k;
  run.config.call_frequency = m.call_frequency;
  run.config.max_window = m.max_window;
  run.config.policy = static_cast<cluster::SelectPolicy>(m.policy);
  run.config.seed = m.seed;
  run.config.degrade_fraction = m.degrade_fraction;
  run.config.auto_marker = m.auto_marker;

  // --threads is an execution choice, not part of the recorded run: the
  // determinism contract makes the resumed output identical at any count,
  // so it may differ from the original run's.
  run.engine.emplace(sim::EngineOptions{
      .nprocs = run.procs,
      .sched_seed = m.sched_seed,
      .threads = std::stoi(args.value("--threads").value_or("1"))});
  run.stacks.emplace(run.procs);
  if (plan) {
    run.injector.emplace(*plan);
    run.engine->set_fault_injector(&*run.injector);
    run.engine->set_site_probe([stacks = &*run.stacks](sim::Rank rank) {
      const auto& frames = stacks->stack(rank).frames();
      return frames.empty() ? 0 : frames.back();
    });
  }
  run.checkpointer = durable::Checkpointer::attach(
      dir, *run.recovered, checkpointer_options(args, m.snapshot_every));
  run.config.checkpointer = run.checkpointer.get();
  run.config.resume = &*run.recovered;
  run.chameleon.emplace(run.procs, &*run.stacks, run.config);
  run.tracer = &*run.chameleon;
  run.engine->set_tool(run.tracer);
  return 0;
}

std::string rank_label(int rank) { return std::to_string(rank); }

/// Bridge every accumulator the run produced into the metrics registry:
/// tool-wide perf counters, per-rank per-phase seconds, Chameleon's
/// per-rank per-state seconds and trace-memory bytes, and the engine's
/// fault counters.
void export_run_metrics(obs::MetricsRegistry& reg, WorkloadRun& run) {
  const std::string& tool = run.tool_name;
  if (run.tracer != nullptr) {
    trace::export_to_metrics(run.tracer->perf_counters(), reg, tool);
    reg.set_counter("cham.merge.operations", {{"tool", tool}},
                    run.tracer->merge_operations());
    reg.set_counter("cham.merge.bytes", {{"tool", tool}},
                    run.tracer->merge_bytes());
    reg.set_counter("cham.events.recorded", {{"tool", tool}},
                    run.tracer->events_recorded_total());
    for (int r = 0; r < run.procs; ++r) {
      const trace::PerfCounters& perf = run.tracer->rank_perf_counters(r);
      const obs::Labels base{{"rank", rank_label(r)}, {"tool", tool}};
      const auto phase = [&](const char* name, double seconds) {
        obs::Labels labels = base;
        labels.emplace_back("phase", name);
        reg.set_gauge("cham.rank.phase_seconds", labels, seconds);
      };
      phase("intra", perf.intra_seconds);
      phase("inter", perf.inter_seconds);
      phase("clustering", perf.clustering_seconds);
      reg.set_counter("cham.rank.trace_bytes", base,
                      run.tracer->rank_trace_bytes(r));
    }
  }
  if (run.chameleon) {
    const core::ChameleonTool& cham = *run.chameleon;
    reg.set_counter("cham.run.markers_processed", {{"tool", tool}},
                    cham.marker_calls_processed());
    reg.set_counter("cham.run.clusters", {{"tool", tool}}, cham.effective_k());
    reg.set_counter("cham.run.callpaths", {{"tool", tool}},
                    cham.num_callpath_clusters());
    for (int s = 0; s < 4; ++s) {
      const auto state = static_cast<core::MarkerState>(s);
      const std::string state_name = core::marker_state_name(state);
      for (int r = 0; r < run.procs; ++r) {
        const obs::Labels labels{{"rank", rank_label(r)},
                                 {"state", state_name}};
        reg.set_gauge("cham.rank.state_seconds", labels,
                      cham.rank_state_seconds(r, state));
        const auto& sb = cham.rank_state_bytes(r, state);
        reg.set_counter("cham.mem.state_bytes", labels, sb.bytes_total);
        reg.set_counter("cham.mem.state_calls", labels, sb.calls);
      }
    }
    for (int r = 0; r < run.procs; ++r) {
      const obs::Labels labels{{"rank", rank_label(r)}};
      const support::MemTracker& mem = cham.rank_mem(r);
      reg.set_gauge("cham.mem.current_bytes", labels,
                    static_cast<double>(mem.current()));
      reg.set_gauge("cham.mem.peak_bytes", labels,
                    static_cast<double>(mem.peak()));
    }
  }
  reg.set_counter("cham.engine.ranks_failed", {},
                  static_cast<std::uint64_t>(run.engine->failed_count()));
  reg.set_counter("cham.engine.messages_lost", {}, run.engine->messages_lost());
  reg.set_counter("cham.engine.retransmissions", {},
                  run.engine->retransmissions());
}

/// Write profile/timeline/metrics output files if requested. Returns 0 or
/// an exit code on I/O failure. The profile is finished first: stopping the
/// sampler publishes the folded stacks, and the counter tracks must merge
/// into the timeline before the timeline itself is rendered.
int finish_observability(const Args& args, Observability& scope,
                         WorkloadRun& run) {
  if (obs::prof::Profiler* prof = scope.profiler()) {
    obs::prof::set_profiler(nullptr);  // hooks off before export
    prof->stop_sampling();
    if (obs::Timeline* tl = scope.timeline()) prof->export_counter_tracks(*tl);
    const std::string& path = *scope.profile_path();
    if (!write_file(path, prof->to_json_string())) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf(
        "wrote profile (%d shard(s), %llu sample(s), self-cost %.3f ms) to "
        "%s\n",
        prof->shards_bound(),
        static_cast<unsigned long long>(prof->samples_taken()),
        prof->self_seconds() * 1e3, path.c_str());
  }
  if (const auto path = args.value("--timeline")) {
    obs::Timeline* tl = scope.timeline();
    if (tl->flushing()) {
      if (!tl->finish_flush()) {
        std::fprintf(stderr, "failed to write %s\n", path->c_str());
        return 1;
      }
      std::printf("wrote timeline (%zu events, streamed) to %s\n",
                  tl->event_count(), path->c_str());
    } else {
      const std::string doc = tl->to_json();
      if (!write_file(*path, doc)) {
        std::fprintf(stderr, "failed to write %s\n", path->c_str());
        return 1;
      }
      std::printf("wrote timeline (%zu events) to %s\n", tl->event_count(),
                  path->c_str());
    }
  }
  if (const auto path = args.value("--metrics-out")) {
    export_run_metrics(*scope.metrics(), run);
    const std::string doc = scope.metrics()->to_json_string();
    if (!write_file(*path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", path->c_str());
      return 1;
    }
    std::printf("wrote %zu metrics to %s\n", scope.metrics()->size(),
                path->c_str());
  }
  return 0;
}

// --------------------------------------------------------------------------
// Subcommands
// --------------------------------------------------------------------------

/// Serve `run --resume` outputs for an already-finalized checkpoint: the
/// durable wire images ARE the final state, so no re-execution happens and
/// --out/--clusters-out receive them byte-for-byte.
int emit_recovered_outputs(const Args& args, const WorkloadRun& run) {
  const durable::RecoveredState& rec = *run.recovered;
  const auto nodes = trace::decode_trace(rec.online_wire);
  print_stats(nodes);
  if (args.has("--text")) std::fputs(trace::format_trace(nodes).c_str(), stdout);
  const auto dump = [](const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
    if (!write_file(path, std::string_view(
                              reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()))) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu bytes to %s\n", bytes.size(), path.c_str());
    return 0;
  };
  if (const auto out = args.value("--out"))
    if (int rc = dump(*out, rec.online_wire); rc != 0) return rc;
  if (const auto out = args.value("--clusters-out"))
    if (int rc = dump(*out, rec.clusters_wire); rc != 0) return rc;
  return 0;
}

int cmd_run(const Args& args) {
  WorkloadRun run;
  if (const auto dir = args.value("--resume")) {
    if (int rc = setup_resume(args, *dir, run); rc != 0) return rc;
    if (run.recovered->finalized) return emit_recovered_outputs(args, run);
  } else {
    if (int rc = setup_run(args, run); rc != 0) return rc;
    if (const auto dir = args.value("--checkpoint-dir")) {
      if (!run.chameleon) {
        std::fprintf(stderr,
                     "--checkpoint-dir journals the Chameleon protocol; "
                     "--tool %s has no epochs to checkpoint\n",
                     run.tool_name.c_str());
        return 2;
      }
      run.checkpointer = durable::Checkpointer::create(
          *dir, make_manifest(args, run),
          checkpointer_options(
              args, std::stoi(args.value("--snapshot-every").value_or("8"))));
      run.config.checkpointer = run.checkpointer.get();
      // Rebuild the tool with the checkpointer wired in (same pattern as
      // report's record_epochs rebuild).
      run.chameleon.emplace(run.procs, &*run.stacks, run.config);
      run.tracer = &*run.chameleon;
      run.engine->set_tool(run.tracer);
    }
  }
  if (args.has("--perf") && run.tracer == nullptr) {
    std::fprintf(stderr,
                 "--perf needs a tracing tool, but --tool none selected the "
                 "bare simulator; drop --perf or pick a tool\n");
    return 2;
  }
  if ((args.has("--text") || args.value("--out")) && run.tracer == nullptr) {
    std::fprintf(stderr,
                 "--text/--out need a tracing tool, but --tool none selected "
                 "the bare simulator\n");
    return 2;
  }

  Observability scope(args);
  execute(run);

  std::printf("traced %s on %d ranks with %s\n",
              std::string(run.info->name).c_str(), run.procs,
              run.tool_name.c_str());
  if (run.injector) {
    std::printf(
        "faults: %llu crash(es), %llu drop(s); %d rank(s) dead, %llu "
        "message(s) lost, %llu retransmission(s)\n",
        static_cast<unsigned long long>(run.injector->crashes_injected()),
        static_cast<unsigned long long>(run.injector->drops_injected()),
        run.engine->failed_count(),
        static_cast<unsigned long long>(run.engine->messages_lost()),
        static_cast<unsigned long long>(run.engine->retransmissions()));
  }
  if (run.checkpointer) {
    std::printf(
        "durable: %llu epoch(s) committed, %llu snapshot(s), %llu rank "
        "record(s), %llu fsync(s)\n",
        static_cast<unsigned long long>(run.checkpointer->epochs_committed()),
        static_cast<unsigned long long>(run.checkpointer->snapshots_written()),
        static_cast<unsigned long long>(run.checkpointer->records_appended()),
        static_cast<unsigned long long>(run.checkpointer->fsyncs()));
  }
  if (run.tracer != nullptr) {
    const std::vector<trace::TraceNode>& nodes =
        run.chameleon ? run.chameleon->online_trace()
                      : run.tracer->global_trace();
    print_stats(nodes);
    if (run.chameleon) {
      const core::ChameleonTool& cham = *run.chameleon;
      std::printf(
          "markers processed: %llu (C=%llu L=%llu AT=%llu), clusters: "
          "%zu over %zu call-paths\n",
          static_cast<unsigned long long>(cham.marker_calls_processed()),
          static_cast<unsigned long long>(
              cham.state_count(core::MarkerState::kClustering)),
          static_cast<unsigned long long>(
              cham.state_count(core::MarkerState::kLead)),
          static_cast<unsigned long long>(
              cham.state_count(core::MarkerState::kAllTracing)),
          cham.effective_k(), cham.num_callpath_clusters());
    }
    if (args.has("--perf")) {
      const trace::PerfCounters& perf = run.tracer->perf_counters();
      std::printf("perf counters:\n%s\n", perf.to_string().c_str());
    }
    if (args.has("--text")) {
      std::fputs(trace::format_trace(nodes).c_str(), stdout);
    }
    if (const auto out = args.value("--out")) {
      const auto bytes = trace::encode_trace(nodes);
      if (!write_file(*out,
                      std::string_view(
                          reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()))) {
        std::fprintf(stderr, "failed to write %s\n", out->c_str());
        return 1;
      }
      std::printf("wrote %zu bytes to %s\n", bytes.size(), out->c_str());
    }
    if (const auto out = args.value("--clusters-out")) {
      if (!run.chameleon) {
        std::fprintf(stderr,
                     "--clusters-out needs the Chameleon tool; --tool %s has "
                     "no cluster table\n",
                     run.tool_name.c_str());
        return 2;
      }
      const auto bytes = run.chameleon->clusters().encode();
      if (!write_file(*out,
                      std::string_view(
                          reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()))) {
        std::fprintf(stderr, "failed to write %s\n", out->c_str());
        return 1;
      }
      std::printf("wrote cluster table (%zu bytes) to %s\n", bytes.size(),
                  out->c_str());
    }
  }
  return finish_observability(args, scope, run);
}

int cmd_report(const Args& args) {
  const std::string format = args.value("--format").value_or("text");
  if (format != "text" && format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown report format '%s' (text|csv|json)\n",
                 format.c_str());
    return 2;
  }
  WorkloadRun run;
  if (int rc = setup_run(args, run); rc != 0) return rc;
  if (!run.chameleon) {
    std::fprintf(stderr,
                 "chamtrace report replays the Chameleon protocol; --tool %s "
                 "has no epochs to report\n",
                 run.tool_name.c_str());
    return 2;
  }
  // Epoch recording is off by default (costs O(P) per marker); the report
  // is the one consumer, so rebuild the tool with it enabled.
  run.config.record_epochs = true;
  run.chameleon.emplace(run.procs, &*run.stacks, run.config);
  run.tracer = &*run.chameleon;
  run.engine->set_tool(run.tracer);

  Observability scope(args);
  execute(run);

  const obs::ReportInput input =
      core::build_report_input(*run.chameleon, std::string(run.info->name));
  std::string rendered;
  if (format == "text") {
    rendered = obs::render_text(input);
  } else if (format == "csv") {
    rendered = obs::render_csv(input);
  } else {
    support::json::Writer w;
    obs::render_json(input, w);
    rendered = w.str();
    rendered.push_back('\n');
  }
  if (const auto out = args.value("--out")) {
    if (!write_file(*out, rendered)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote %s report (%zu epochs) to %s\n", format.c_str(),
                input.epochs.size(), out->c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return finish_observability(args, scope, run);
}

/// Installs a race sink for one scope and guarantees removal even when the
/// workload throws, so no dangling analyzer outlives the run.
class RaceSinkScope {
 public:
  explicit RaceSinkScope(race::Sink* sink) { race::set_sink(sink); }
  ~RaceSinkScope() { race::set_sink(nullptr); }
  RaceSinkScope(const RaceSinkScope&) = delete;
  RaceSinkScope& operator=(const RaceSinkScope&) = delete;
};

int cmd_race(const Args& args) {
  WorkloadRun run;
  if (int rc = setup_run(args, run); rc != 0) return rc;

  // The vector-clock analyzer consumes the annotation stream in program
  // order and is not thread-safe, so the analyzed pass always runs
  // single-threaded — its findings are interleaving-independent anyway.
  // The requested thread count is exercised by the determinism audit below.
  const int requested_threads =
      std::stoi(args.value("--threads").value_or("1"));
  if (requested_threads > 1) {
    CHAM_WARN() << "race: analyzer pass clamped to --threads 1 (requested "
                << requested_threads
                << "; the RaceAnalyzer is single-threaded, and the "
                   "determinism audit covers multi-threaded runs)";
    run.engine.emplace(sim::EngineOptions{
        .nprocs = run.procs,
        .sched_seed = std::stoull(args.value("--sched-seed").value_or("0"))});
    if (run.injector) {
      run.engine->set_fault_injector(&*run.injector);
      run.engine->set_site_probe([stacks = &*run.stacks](sim::Rank rank) {
        const auto& frames = stacks->stack(rank).frames();
        return frames.empty() ? 0 : frames.back();
      });
    }
    if (run.tracer != nullptr) run.engine->set_tool(run.tracer);
  }

  Observability scope(args);

  // Pass 1: the analyzed run. Seed 0 keeps the scheduler in FIFO order —
  // the point of the vector clocks is that findings do not depend on the
  // observed interleaving.
  analysis::race::RaceAnalyzer analyzer(run.procs);
  {
    RaceSinkScope sink(&analyzer);
    execute(run);
  }

  analysis::DiagnosticSink diagnostics;
  analyzer.report(diagnostics);
  if (obs::Timeline* tl = scope.timeline()) {
    for (const auto& finding : analyzer.findings())
      tl->instant(obs::Timeline::rank_tid(finding.current.task >= 0
                                              ? finding.current.task
                                              : 0),
                  "race.conflict", "race",
                  {obs::arg_str("location", finding.location),
                   obs::arg_str("kind",
                                std::string(analysis::race::kind_name(
                                    finding.kind)))});
  }

  std::printf(
      "analyzed %s on %d ranks with %s: %llu accesses (%llu atomic), %llu "
      "sync ops, %zu locations, %llu epochs\n",
      std::string(run.info->name).c_str(), run.procs, run.tool_name.c_str(),
      static_cast<unsigned long long>(analyzer.accesses()),
      static_cast<unsigned long long>(analyzer.atomic_accesses()),
      static_cast<unsigned long long>(analyzer.sync_ops()),
      analyzer.locations(),
      static_cast<unsigned long long>(analyzer.epochs()));
  if (!diagnostics.clean())
    std::fputs(diagnostics.format_report().c_str(), stdout);

  // Pass 2: the determinism audit. Baseline FIFO (seed 0) plus N shuffled
  // scheduler seeds; every run records per-epoch wire-image digests and
  // the sequences must match element-wise. Only Chameleon commits epoch
  // state, so other tools have nothing to audit.
  std::optional<analysis::race::DeterminismResult> determinism;
  bool threads_deterministic = true;
  int divergent_thread_count = 0;
  std::size_t thread_runs = 0;
  const bool audit = !args.has("--no-audit") && run.chameleon.has_value();
  if (audit) {
    const auto digests_for = [&](std::uint64_t seed, int threads) {
      sim::Engine engine(sim::EngineOptions{
          .nprocs = run.procs, .sched_seed = seed, .threads = threads});
      trace::CallSiteRegistry stacks(run.procs);
      core::ChameleonConfig config = run.config;
      config.record_digests = true;
      core::ChameleonTool tool(run.procs, &stacks, config);
      engine.set_tool(&tool);
      engine.run([&](sim::Mpi& mpi) {
        run.info->run(mpi, stacks, run.params);
      });
      return tool.epoch_digests();
    };
    const int nseeds = std::stoi(args.value("--seeds").value_or("10"));
    std::vector<std::uint64_t> seeds{0};
    for (int s = 1; s <= nseeds; ++s)
      seeds.push_back(static_cast<std::uint64_t>(s));
    determinism = analysis::race::audit_determinism(
        [&](std::uint64_t seed) { return digests_for(seed, 1); }, seeds);

    // ChamShard leg: the same workload at 2 and 4 shards, FIFO and one
    // shuffled seed each, must reproduce the single-threaded per-epoch
    // digests element-for-element.
    const std::vector<std::uint64_t> baseline = digests_for(0, 1);
    for (const int threads : {2, 4}) {
      for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}}) {
        ++thread_runs;
        if (digests_for(seed, threads) != baseline) {
          threads_deterministic = false;
          divergent_thread_count = threads;
        }
      }
    }
  }

  if (const auto out = args.value("--json")) {
    analysis::race::RaceReportMeta meta{std::string(run.info->name),
                                        run.tool_name, run.procs};
    meta.requested_threads = requested_threads;
    meta.analyzer_threads = 1;
    const std::string doc = analysis::race::write_race_json(
        analyzer, meta, determinism ? &*determinism : nullptr);
    if (!write_file(*out, doc)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote race report to %s\n", out->c_str());
  }
  if (int rc = finish_observability(args, scope, run); rc != 0) return rc;

  bool failed = false;
  if (!analyzer.findings().empty()) {
    std::printf("race: %zu conflicting access pair(s) found\n",
                analyzer.findings().size());
    failed = true;
  }
  if (determinism && !determinism->deterministic) {
    std::printf(
        "race: non-deterministic — seed %llu diverges from baseline at "
        "epoch %lld\n",
        static_cast<unsigned long long>(determinism->divergent_seed),
        static_cast<long long>(determinism->first_divergent_epoch));
    failed = true;
  } else if (determinism && failed) {
    std::printf("race: %zu epochs deterministic across %zu seeds\n",
                determinism->epochs_compared, determinism->seeds.size());
  }
  if (determinism && !threads_deterministic) {
    std::printf(
        "race: non-deterministic across thread counts — %d shards diverge "
        "from the single-threaded baseline\n",
        divergent_thread_count);
    failed = true;
  }
  if (!failed) {
    if (determinism)
      std::printf(
          "race: clean (0 findings; %zu epochs deterministic across %zu "
          "seeds and %zu multi-threaded runs)\n",
          determinism->epochs_compared, determinism->seeds.size(),
          thread_runs);
    else
      std::printf("race: clean (0 findings; determinism audit skipped)\n");
  }
  return failed ? 1 : 0;
}

/// `chamtrace profile <file> [--folded]`: render a saved chameleon.prof.v1
/// document. Parsing only requires well-formed JSON with the right schema
/// tag (the renderers tolerate missing sections, so a compiled_in:false
/// document still prints); `validate --prof` is the strict check.
int cmd_profile(const Args& args) {
  const auto path = args.positional();
  if (!path) return usage();
  std::ifstream in(*path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path->c_str());
    return 2;
  }
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  support::json::Value doc;
  std::string error;
  if (!support::json::parse(text, &doc, &error)) {
    std::fprintf(stderr, "%s: %s\n", path->c_str(), error.c_str());
    return 2;
  }
  const support::json::Value* schema =
      doc.is_object() ? doc.find("schema") : nullptr;
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "chameleon.prof.v1") {
    std::fprintf(stderr, "%s: not a chameleon.prof.v1 document\n",
                 path->c_str());
    return 2;
  }
  std::fputs(args.has("--folded")
                 ? obs::prof::render_folded(doc).c_str()
                 : obs::prof::render_profile_summary(doc).c_str(),
             stdout);
  return 0;
}

int cmd_validate(const Args& args) {
  const auto timeline_path = args.value("--timeline");
  const auto metrics_path = args.value("--metrics");
  const auto race_path = args.value("--race");
  const auto prof_path = args.value("--prof");
  if (!timeline_path && !metrics_path && !race_path && !prof_path)
    return usage();
  int rc = 0;
  const auto check = [&rc](const std::string& path, auto validator,
                           const char* what) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      rc = 1;
      return;
    }
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    std::string error;
    if (validator(text, &error)) {
      std::printf("%s: valid %s\n", path.c_str(), what);
    } else {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      rc = 1;
    }
  };
  if (timeline_path)
    check(*timeline_path, obs::validate_timeline_json, "timeline");
  if (metrics_path) check(*metrics_path, obs::validate_metrics_json, "metrics");
  if (race_path) check(*race_path, obs::validate_race_json, "race report");
  if (prof_path) check(*prof_path, obs::validate_prof_json, "profile");
  return rc;
}

int cmd_show(const Args& args) {
  const auto path = args.positional();
  if (!path) return usage();
  const auto nodes = load_trace(*path);
  print_stats(nodes);
  std::fputs(trace::format_trace(nodes).c_str(), stdout);
  return 0;
}

int cmd_replay(const Args& args) {
  const auto path = args.positional();
  const auto procs = args.value("--procs");
  if (!path || !procs) return usage();
  const auto nodes = load_trace(*path);
  const auto result =
      replay::replay_trace(nodes, {.nprocs = std::stoi(*procs)});
  std::printf("replayed %llu events (%llu messages, %llu collectives)\n",
              static_cast<unsigned long long>(result.events_replayed),
              static_cast<unsigned long long>(result.messages),
              static_cast<unsigned long long>(result.collectives));
  std::printf("virtual completion time: %.6f s\n", result.vtime);
  if (result.cancelled_recvs != 0 || result.forced_collectives != 0) {
    std::printf("approximation: %llu cancelled recvs, %llu forced "
                "collectives\n",
                static_cast<unsigned long long>(result.cancelled_recvs),
                static_cast<unsigned long long>(result.forced_collectives));
  }
  return 0;
}

/// Uniform CLI failure reporting for bad input files: one line on stderr
/// (a JSON object when --log-json structured output was requested) and
/// exit code 2, distinguishing "your file is bad" from internal errors (1).
int report_input_error(const Args& args, const char* kind,
                       const std::string& message) {
  if (args.has("--log-json")) {
    support::json::Writer w(/*pretty=*/false);
    w.begin_object();
    w.member("error", "chamtrace");
    w.member("kind", kind);
    w.member("message", message);
    w.end_object();
    std::fprintf(stderr, "%s\n", w.str().c_str());
  } else {
    std::fprintf(stderr, "chamtrace: %s error: %s\n", kind, message.c_str());
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  try {
    if (args.has("--log-json"))
      support::set_log_format(support::LogFormat::kJson);
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(args);
    if (command == "report") return cmd_report(args);
    if (command == "race") return cmd_race(args);
    if (command == "profile") return cmd_profile(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "show") return cmd_show(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const trace::DecodeError& e) {
    return report_input_error(args, "decode", e.what());
  } catch (const std::system_error& e) {
    return report_input_error(args, "io", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chamtrace: %s\n", e.what());
    return 1;
  }
  return usage();
}
