// Shared experiment driver for the table/figure benches.
//
// One call = one (workload, P, tool) run, returning everything the paper's
// tables and figures report: aggregated tool CPU overhead (the stand-in for
// aggregated wall-clock across nodes, see DESIGN.md), virtual app time,
// Chameleon state counters, per-state times, per-rank space, and the
// resulting global/online trace for replay experiments.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "workloads/workload.hpp"

namespace cham::bench {

enum class ToolKind { kNone, kScalaTrace, kChameleon, kAcurdion };

const char* tool_name(ToolKind kind);

struct RunConfig {
  std::string workload;
  int nprocs = 16;
  workloads::WorkloadParams params{};
  /// K / Call_Frequency / policy; k==0 means "use the workload default".
  core::ChameleonConfig cham{.k = 0};
};

struct RunOutcome {
  // --- both app and tool runs ---
  double app_vtime = 0.0;   ///< virtual completion time (slowest rank)
  double vtime_sum = 0.0;   ///< aggregated completion time over all ranks

  // --- tool runs ---
  double tool_cpu_seconds = 0.0;  ///< intra + clustering + inter, all ranks
  /// The paper's Figure 4/6/8-11 "overhead": clustering + inter-compression
  /// work only — intra-node tracing is common to every tool and excluded
  /// ("the execution overhead of ScalaTrace features just regular
  /// inter-node compression performed in MPI_Finalize").
  double overhead_seconds = 0.0;
  double intra_seconds = 0.0;
  double clustering_seconds = 0.0;
  double inter_seconds = 0.0;
  /// Pairwise merge operations / compressed bytes merged (see
  /// ScalaTraceTool::merge_operations) — the hardware-independent view of
  /// the P-vs-K participant contrast.
  std::uint64_t merge_operations = 0;
  std::uint64_t merge_bytes = 0;
  std::vector<trace::TraceNode> trace;  ///< global (ST/ACURDION) or online (CH)

  // --- Chameleon-only ---
  std::uint64_t markers_processed = 0;
  std::array<std::uint64_t, 4> state_counts{};  // AT, C, L, F
  std::array<double, 4> state_seconds{};
  std::size_t effective_k = 0;
  std::size_t num_callpaths = 0;
  /// Per-rank, per-state average bytes per call (Table IV); empty unless
  /// requested via RunConfig-independent flag below.
  std::vector<std::array<core::ChameleonTool::StateLedger, 4>> rank_state_bytes;
};

/// Execute the configured workload under the given tool.
/// `keep_rank_bytes` copies the Table IV accounting out of the tool.
RunOutcome run_experiment(ToolKind kind, const RunConfig& config,
                          bool keep_rank_bytes = false);

/// The paper's overhead metric: aggregated wall-clock of the instrumented
/// run minus the uninstrumented one (tool CPU is charged to the virtual
/// clocks, so this covers compute + communication + waiting).
inline double aggregated_overhead(const RunOutcome& tool_run,
                                  const RunOutcome& app_run) {
  return std::max(0.0, tool_run.vtime_sum - app_run.vtime_sum);
}

/// Environment-driven scaling so the full suite stays runnable on small
/// hosts: CHAM_BENCH_MAXP caps process counts (default 1024),
/// CHAM_BENCH_STEP_DIVISOR divides timestep counts (default 1 = paper
/// scale).
int bench_max_p();
int bench_step_divisor();

/// The paper's strong-scaling process counts, capped by CHAM_BENCH_MAXP.
std::vector<int> strong_scaling_procs();

/// Scale a Table II timestep count by the divisor (at least 4 steps).
int scaled_steps(int paper_steps);

/// Write a CSV next to the binary (bench_results/<name>.csv); best effort.
void save_csv(const std::string& name, const std::string& content);

}  // namespace cham::bench
