// ChamScale weak-scaling benchmark: the clustering protocol at 1k-64k ranks.
//
// Runs the lu workload (weak scaling: per-rank problem size fixed) under the
// full Chameleon protocol on the sharded engine and reports wall time and
// peak RSS per rank count, plus the intern-table/dedup telemetry that
// explains the scaling (docs/PERF.md "64k memory budget"). Results land in
// bench_results/BENCH_scale.json (schema chameleon.bench_scale.v1), gated
// by tools/check.sh, with a host block (bench/host.hpp).
//
// Each rank count runs in a child process (`--row P`) so ru_maxrss is that
// row's peak RSS, not the high-water mark of whichever row ran first. Every
// row carries the FNV-64 digests of the cluster table and the online-trace
// structural projection; tools/check.sh and the ctest smoke compare fresh
// rows with the committed ones.
//
// Usage: bench_scale [--smoke] [--out FILE] [--ranks CSV] [--threads N]
//                    [--steps N] [--row P]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/chameleon.hpp"
#include "host.hpp"
#include "sim/engine.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "trace/ranklist.hpp"
#include "trace/serialize.hpp"
#include "workloads/workload.hpp"

using namespace cham;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return support::fnv1a64(bytes.data(), bytes.size());
}

struct RowResult {
  int nprocs = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  long max_rss_kb = 0;
  std::uint64_t table_digest = 0;
  std::uint64_t structure_digest = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t merge_operations = 0;
  std::uint64_t merge_zip_hits = 0;
  std::size_t clusters = 0;
  std::size_t intern_entries = 0;
  std::size_t intern_arena_kb = 0;
  std::size_t union_memo_hits = 0;
};

/// One full protocol run. The timed region covers engine construction
/// through finalize — the whole instrumented lifetime a real deployment
/// would pay for.
RowResult run_row(int nprocs, int threads, int steps) {
  const workloads::WorkloadInfo* info = workloads::find_workload("lu");
  if (info == nullptr) {
    std::fprintf(stderr, "lu workload missing\n");
    std::exit(2);
  }
  workloads::WorkloadParams params;
  params.cls = 'C';
  params.timesteps = steps;
  params.weak = true;

  core::ChameleonConfig cham;
  cham.k = info->default_k;

  const double t0 = now_seconds();
  sim::Engine engine({.nprocs = nprocs, .threads = threads});
  trace::CallSiteRegistry stacks(nprocs);
  core::ChameleonTool tool(nprocs, &stacks, cham);
  engine.set_tool(&tool);
  engine.run([&](sim::Mpi& mpi) { info->run(mpi, stacks, params); });

  RowResult row;
  row.wall_seconds = now_seconds() - t0;
  row.nprocs = nprocs;
  row.threads = threads;
  row.table_digest = digest(tool.clusters().encode());
  row.structure_digest =
      digest(trace::encode_trace_structure(tool.online_trace()));
  row.events_recorded = tool.events_recorded_total();
  row.merge_operations = tool.merge_operations();
  row.merge_zip_hits = tool.perf_counters().merge_zip_hits;
  row.clusters = tool.clusters().total_clusters();
  const trace::RankListInternStats intern = trace::ranklist_intern_stats();
  row.intern_entries = intern.entries;
  row.intern_arena_kb = intern.arena_bytes / 1024;
  row.union_memo_hits = intern.union_memo_hits;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  row.max_rss_kb = usage.ru_maxrss;  // KB on Linux
  return row;
}

void print_row(const RowResult& row) {
  support::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("nprocs", row.nprocs);
  w.member("threads", row.threads);
  w.key("wall_seconds").raw(fixed(row.wall_seconds, 3));
  w.member("max_rss_kb", static_cast<std::int64_t>(row.max_rss_kb));
  w.member("table_digest", hex64(row.table_digest));
  w.member("structure_digest", hex64(row.structure_digest));
  w.member("events_recorded", row.events_recorded);
  w.member("merge_operations", row.merge_operations);
  w.member("merge_zip_hits", row.merge_zip_hits);
  w.member("clusters", static_cast<std::uint64_t>(row.clusters));
  w.member("intern_entries", static_cast<std::uint64_t>(row.intern_entries));
  w.member("intern_arena_kb",
           static_cast<std::uint64_t>(row.intern_arena_kb));
  w.member("union_memo_hits",
           static_cast<std::uint64_t>(row.union_memo_hits));
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

/// Run one row in a child process (clean per-row peak RSS) and parse the
/// fields the driver needs back out of its single-line JSON.
std::optional<RowResult> spawn_row(const std::string& self, int nprocs,
                                   int threads, int steps) {
  std::ostringstream cmd;
  cmd << '"' << self << "\" --row " << nprocs << " --threads " << threads
      << " --steps " << steps;
  FILE* pipe = popen(cmd.str().c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  if (status != 0) {
    std::fprintf(stderr, "row P=%d failed (status %d):\n%s", nprocs, status,
                 output.c_str());
    return std::nullopt;
  }
  support::json::Value doc;
  std::string error;
  if (!support::json::parse(output, &doc, &error) || !doc.is_object()) {
    std::fprintf(stderr, "row P=%d produced unparseable JSON: %s\n", nprocs,
                 error.c_str());
    return std::nullopt;
  }
  RowResult row;
  const auto u64_field = [&](const char* name) -> std::uint64_t {
    const support::json::Value* v = doc.find(name);
    return v != nullptr ? static_cast<std::uint64_t>(v->as_number()) : 0;
  };
  const auto hex_field = [&](const char* name) -> std::uint64_t {
    const support::json::Value* v = doc.find(name);
    if (v == nullptr) return 0;
    return std::strtoull(v->as_string().c_str(), nullptr, 16);
  };
  row.nprocs = nprocs;
  row.threads = threads;
  const support::json::Value* wall = doc.find("wall_seconds");
  row.wall_seconds = wall != nullptr ? wall->as_number() : 0.0;
  row.max_rss_kb = static_cast<long>(u64_field("max_rss_kb"));
  row.table_digest = hex_field("table_digest");
  row.structure_digest = hex_field("structure_digest");
  row.events_recorded = u64_field("events_recorded");
  row.merge_operations = u64_field("merge_operations");
  row.merge_zip_hits = u64_field("merge_zip_hits");
  row.clusters = u64_field("clusters");
  row.intern_entries = u64_field("intern_entries");
  row.intern_arena_kb = u64_field("intern_arena_kb");
  row.union_memo_hits = u64_field("union_memo_hits");
  return row;
}

void write_json_row(support::json::Writer& w, const RowResult& row) {
  w.begin_object();
  w.member("nprocs", row.nprocs);
  w.member("threads", row.threads);
  w.key("wall_seconds").raw(fixed(row.wall_seconds, 3));
  w.member("max_rss_kb", static_cast<std::int64_t>(row.max_rss_kb));
  w.key("rss_bytes_per_rank")
      .raw(fixed(1024.0 * static_cast<double>(row.max_rss_kb) /
                     static_cast<double>(row.nprocs),
                 1));
  w.member("table_digest", hex64(row.table_digest));
  w.member("structure_digest", hex64(row.structure_digest));
  w.member("events_recorded", row.events_recorded);
  w.member("merge_operations", row.merge_operations);
  w.member("merge_zip_hits", row.merge_zip_hits);
  w.member("clusters", static_cast<std::uint64_t>(row.clusters));
  w.member("intern_entries", static_cast<std::uint64_t>(row.intern_entries));
  w.member("intern_arena_kb",
           static_cast<std::uint64_t>(row.intern_arena_kb));
  w.member("union_memo_hits",
           static_cast<std::uint64_t>(row.union_memo_hits));
  w.end_object();
}

std::vector<int> parse_ranks(const std::string& csv) {
  std::vector<int> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ranks = {1024, 4096, 16384, 65536};
  std::string out_path = "bench_results/BENCH_scale.json";
  int threads = 4;  // the sharded engine is the deployment target
  int steps = 4;
  std::optional<int> row_nprocs;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--row" && i + 1 < argc) {
      row_nprocs = std::stoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::stoi(argv[++i]);
    } else if (arg == "--steps" && i + 1 < argc) {
      steps = std::stoi(argv[++i]);
    } else if (arg == "--ranks" && i + 1 < argc) {
      ranks = parse_ranks(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
      ranks = {256, 1024};
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--smoke] [--out FILE] [--ranks CSV] "
                   "[--threads N] [--steps N] [--row P]\n");
      return 2;
    }
  }

  if (row_nprocs.has_value()) {
    print_row(run_row(*row_nprocs, threads, steps));
    return 0;
  }

  const std::string self = argv[0];
  std::vector<RowResult> rows;
  for (const int p : ranks) {
    std::fprintf(stderr, "bench_scale: P=%d threads=%d steps=%d...\n", p,
                 threads, steps);
    const std::optional<RowResult> row = spawn_row(self, p, threads, steps);
    if (!row.has_value()) return 1;
    rows.push_back(*row);
  }

  support::json::Writer w;
  w.begin_object();
  w.member("schema", "chameleon.bench_scale.v1");
  w.member("workload", "lu");
  w.member("weak_scaling", true);
  w.member("steps", steps);
  w.member("threads", threads);
  w.member("smoke", smoke);
  bench::write_host(w);
  w.key("rows").begin_array();
  for (const RowResult& row : rows) write_json_row(w, row);
  w.end_array();
  w.end_object();

  const std::string doc = w.str();
  std::printf("%s\n", doc.c_str());
  if (out_path != "-") {
    if (FILE* f = std::fopen(out_path.c_str(), "w"); f != nullptr) {
      std::fputs(doc.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "bench_scale: cannot write %s\n",
                   out_path.c_str());
    }
  }
  return 0;
}
