// ChamShard engine throughput benchmark.
//
// Drives the discrete-event engine with a pure-engine workload (ring halo
// exchange plus a periodic allreduce — no tracing tool attached, so the
// numbers isolate scheduler + matching + collective cost) at 1k/4k/16k rank
// fibers and 1/2/4/8 scheduler threads, and reports rank-timesteps per
// second for every cell of the matrix. Alongside the timings the harness
// folds each run's observable outcome (final per-rank virtual clocks and
// the engine counters) into a digest and fails if any thread count's digest
// diverges from the single-threaded baseline — a throughput number for a
// wrong answer is worthless.
//
// Results land in bench_results/BENCH_engine.json (schema
// "chameleon.bench_engine.v1", gated by tools/check.sh). The report carries
// a host block (usable cores, std::thread::hardware_concurrency(), build
// type, compiler, and `git describe` of the source checkout) because
// speedup expectations only apply when the host actually has the cores: on
// a 1-core box the multi-threaded runs still have to produce identical
// digests, but they are allowed to be slower than the one-thread run.
//
// Usage: bench_engine [--steps N] [--smoke] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

using namespace cham;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ring halo exchange with a periodic allreduce: every timestep each rank
/// computes, sends one message around the ring, receives its neighbour's,
/// and every eighth step the whole world synchronizes. Message sizes vary
/// per rank so the net model exercises distinct latencies, keeping the
/// virtual clocks (and hence the epoch structure) non-trivial.
void ring_step(sim::Mpi& mpi, int step) {
  const int p = mpi.size();
  const sim::Rank right = (mpi.rank() + 1) % p;
  const std::size_t bytes = 1024 + 64 * static_cast<std::size_t>(mpi.rank() % 7);
  mpi.compute(1e-6 * static_cast<double>(1 + (mpi.rank() + step) % 3));
  mpi.send(right, bytes, /*tag=*/step % 16);
  mpi.recv(sim::kAnySource, bytes, step % 16);
  if (step % 8 == 7) mpi.allreduce(8);
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;  ///< final vtimes + counters, order-independent
};

RunResult run_once(int fibers, int threads, int steps) {
  sim::EngineOptions opts;
  opts.nprocs = fibers;
  opts.stack_bytes = 64 * 1024;  // 16k fibers at the default 256k would be 4 GiB
  opts.threads = threads;
  sim::Engine engine(opts);

  RunResult r;
  const double t0 = now_seconds();
  engine.run([steps](sim::Mpi& mpi) {
    for (int s = 0; s < steps; ++s) ring_step(mpi, s);
  });
  r.seconds = now_seconds() - t0;

  // Order-independent digest: sum of per-rank clock hashes, folded with the
  // totals the counters accumulated. Any scheduling bug that changes what
  // the simulation computed — not just when it ran — moves this value.
  for (int rank = 0; rank < fibers; ++rank) {
    std::uint64_t bits;
    const double v = engine.vtime(rank);
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    r.digest += support::mix64(bits ^ static_cast<std::uint64_t>(rank));
  }
  r.digest ^= support::mix64(engine.messages_sent());
  r.digest ^= support::mix64(engine.bytes_sent() + 1);
  r.digest ^= support::mix64(engine.collectives_run() + 2);
  return r;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  int steps = 200;
  std::vector<int> fiber_counts = {1024, 4096, 16384};
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::string out_path = "bench_results/BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--steps" && i + 1 < argc) {
      steps = std::stoi(argv[++i]);
    } else if (arg == "--smoke") {
      steps = 24;
      fiber_counts = {256};
      thread_counts = {1, 2, 4};
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_engine [--steps N] [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  bool deterministic = true;
  support::json::Writer w;
  w.begin_object();
  w.member("schema", "chameleon.bench_engine.v1");
  w.member("steps", steps);
  bench::write_host(w);
  w.key("results").begin_array();
  for (const int fibers : fiber_counts) {
    double base_seconds = 0.0;
    std::uint64_t base_digest = 0;
    for (const int threads : thread_counts) {
      const RunResult r = run_once(fibers, threads, steps);
      if (threads == 1) {
        base_seconds = r.seconds;
        base_digest = r.digest;
      } else if (r.digest != base_digest) {
        deterministic = false;
        std::fprintf(stderr,
                     "DIGEST MISMATCH: %d fibers, %d threads diverges from "
                     "single-threaded baseline\n",
                     fibers, threads);
      }
      const double ranks_per_second =
          static_cast<double>(fibers) * steps / r.seconds;
      w.begin_object();
      w.member("fibers", fibers);
      w.member("threads", threads);
      w.key("seconds").raw(fixed(r.seconds, 6));
      w.key("ranks_per_second").raw(fixed(ranks_per_second, 1));
      w.key("speedup_vs_1thread").raw(fixed(base_seconds / r.seconds, 2));
      w.end_object();
      std::fprintf(stderr, "%6d fibers  %d threads  %9.4fs  %12.0f ranks/s\n",
                   fibers, threads, r.seconds, ranks_per_second);
    }
  }
  w.end_array();
  w.member("deterministic", deterministic);
  w.end_object();
  const std::string json = w.str() + "\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::trunc);
    if (file) {
      file << json;
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    }
  }
  return deterministic ? 0 : 1;
}
