#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/acurdion.hpp"
#include "sim/engine.hpp"
#include "support/logging.hpp"

namespace cham::bench {

const char* tool_name(ToolKind kind) {
  switch (kind) {
    case ToolKind::kNone: return "app";
    case ToolKind::kScalaTrace: return "scalatrace";
    case ToolKind::kChameleon: return "chameleon";
    case ToolKind::kAcurdion: return "acurdion";
  }
  return "?";
}

RunOutcome run_experiment(ToolKind kind, const RunConfig& config,
                          bool keep_rank_bytes) {
  const workloads::WorkloadInfo* info =
      workloads::find_workload(config.workload);
  CHAM_CHECK_MSG(info != nullptr, "unknown workload: " + config.workload);

  core::ChameleonConfig cham = config.cham;
  if (cham.k == 0) cham.k = info->default_k;

  sim::Engine engine({.nprocs = config.nprocs});
  trace::CallSiteRegistry stacks(config.nprocs);

  std::unique_ptr<trace::ScalaTraceTool> tool;
  core::ChameleonTool* chameleon = nullptr;
  core::AcurdionTool* acurdion = nullptr;
  switch (kind) {
    case ToolKind::kNone:
      break;
    case ToolKind::kScalaTrace:
      tool = std::make_unique<trace::ScalaTraceTool>(config.nprocs, &stacks);
      break;
    case ToolKind::kChameleon:
      tool = std::make_unique<core::ChameleonTool>(config.nprocs, &stacks, cham);
      chameleon = static_cast<core::ChameleonTool*>(tool.get());
      break;
    case ToolKind::kAcurdion:
      tool = std::make_unique<core::AcurdionTool>(config.nprocs, &stacks, cham);
      acurdion = static_cast<core::AcurdionTool*>(tool.get());
      break;
  }
  if (tool) engine.set_tool(tool.get());

  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, config.params); });

  RunOutcome out;
  out.app_vtime = engine.max_vtime();
  out.vtime_sum = engine.vtime_sum();
  if (!tool) return out;
  out.intra_seconds = tool->intra_seconds();
  out.merge_operations = tool->merge_operations();
  out.merge_bytes = tool->merge_bytes();
  out.clustering_seconds = tool->clustering_seconds();
  out.inter_seconds = tool->inter_seconds();
  out.tool_cpu_seconds = tool->total_tool_seconds();
  out.overhead_seconds = out.clustering_seconds + out.inter_seconds;
  out.trace = chameleon != nullptr ? chameleon->online_trace()
                                   : tool->global_trace();
  if (acurdion != nullptr) out.effective_k = acurdion->effective_k();
  if (chameleon != nullptr) {
    out.markers_processed = chameleon->marker_calls_processed();
    for (std::size_t s = 0; s < 4; ++s) {
      out.state_counts[s] =
          chameleon->state_count(static_cast<core::MarkerState>(s));
      out.state_seconds[s] =
          chameleon->state_seconds(static_cast<core::MarkerState>(s));
    }
    out.effective_k = chameleon->effective_k();
    out.num_callpaths = chameleon->num_callpath_clusters();
    if (keep_rank_bytes) {
      out.rank_state_bytes.resize(static_cast<std::size_t>(config.nprocs));
      for (int r = 0; r < config.nprocs; ++r) {
        for (std::size_t s = 0; s < 4; ++s) {
          out.rank_state_bytes[static_cast<std::size_t>(r)][s] =
              chameleon->rank_ledger(r, static_cast<core::MarkerState>(s));
        }
      }
    }
  }
  return out;
}

namespace {
int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::max(1, std::atoi(value));
}
}  // namespace

int bench_max_p() { return env_int("CHAM_BENCH_MAXP", 1024); }

int bench_step_divisor() { return env_int("CHAM_BENCH_STEP_DIVISOR", 1); }

std::vector<int> strong_scaling_procs() {
  std::vector<int> procs;
  for (int p : {16, 64, 256, 1024}) {
    if (p <= bench_max_p()) procs.push_back(p);
  }
  return procs;
}

int scaled_steps(int paper_steps) {
  return std::max(4, paper_steps / bench_step_divisor());
}

void save_csv(const std::string& name, const std::string& content) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/" + name + ".csv", std::ios::trunc);
  if (out) out << content;
}

}  // namespace cham::bench
