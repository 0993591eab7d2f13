// ChamProf overhead benchmark.
//
// Runs the same pure-engine ring workload as bench_engine twice per thread
// count: once with the profiler hooks compiled in but disabled (the null
// global — one load and branch per hook, the shipping default) and once
// with a live Profiler installed and the sampler ticking. Each
// configuration runs --repeat times and keeps the minimum wall time, so
// the reported ratio compares best-case against best-case rather than
// scheduler noise against scheduler noise. The engine digests of the off
// and on runs must match — the profiler observes the run, it must never
// change it.
//
// Results land in bench_results/BENCH_profiler.json (schema
// "chameleon.bench_profiler.v1", gated by tools/check.sh), with a host
// block (bench/host.hpp). The separate
// compiled-out configuration (-DCHAMELEON_PROF=OFF) is gated by the
// check.sh disabled-overhead leg, not here: this binary measures what
// turning the profiler ON costs, check.sh proves that leaving it OFF
// costs nothing.
//
// Usage: bench_profiler [--steps N] [--repeat R] [--smoke] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/prof/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/mpi.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

using namespace cham;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Same shape as bench_engine's workload: ring halo exchange with a
/// periodic allreduce, per-rank message-size variation.
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
  std::uint64_t digest = 0;
  std::uint64_t samples = 0;      ///< profiled runs only
  double self_seconds = 0.0;      ///< profiler's self-measured cost
};

/// Installs the global profiler for one run and guarantees removal even if
/// the run throws — a leaked global would dangle at the stack-local
/// Profiler in subsequent iterations.
class ProfilerGuard {
 public:
  explicit ProfilerGuard(obs::prof::Profiler* p) { obs::prof::set_profiler(p); }
  ~ProfilerGuard() { obs::prof::set_profiler(nullptr); }
  ProfilerGuard(const ProfilerGuard&) = delete;
  ProfilerGuard& operator=(const ProfilerGuard&) = delete;
};

RunResult run_once(int fibers, int threads, int steps, bool profiled) {
  obs::prof::Profiler prof;

  sim::EngineOptions opts;
  opts.nprocs = fibers;
  opts.stack_bytes = 64 * 1024;
  opts.threads = threads;
  sim::Engine engine(opts);

  RunResult r;
  {
    const ProfilerGuard guard(profiled ? &prof : nullptr);
    if (profiled) prof.start_sampling();
    const double t0 = now_seconds();
    engine.run([steps](sim::Mpi& mpi) {
      for (int s = 0; s < steps; ++s) ring_step(mpi, s);
    });
    r.seconds = now_seconds() - t0;
  }

  if (profiled) {
    prof.stop_sampling();
    r.samples = prof.samples_taken();
    r.self_seconds = prof.self_seconds();
  }

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

/// Best-of-R: keeps the minimum wall time (and that run's counters).
RunResult run_best(int fibers, int threads, int steps, bool profiled,
                   int repeat) {
  RunResult best;
  for (int i = 0; i < repeat; ++i) {
    const RunResult r = run_once(fibers, threads, steps, profiled);
    if (i == 0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  int steps = 200;
  int repeat = 3;
  int fibers = 1024;
  std::vector<int> thread_counts = {1, 4};
  std::string out_path = "bench_results/BENCH_profiler.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--steps" && i + 1 < argc) {
      steps = std::stoi(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::stoi(argv[++i]);
    } else if (arg == "--smoke") {
      steps = 24;
      repeat = 2;
      fibers = 256;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_profiler [--steps N] [--repeat R] [--smoke] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  bool digests_match = true;
  support::json::Writer w;
  w.begin_object();
  w.member("schema", "chameleon.bench_profiler.v1");
  w.member("compiled_in", obs::prof::kCompiledIn);
  w.member("steps", steps);
  w.member("fibers", fibers);
  w.member("repeat", repeat);
  bench::write_host(w);
  w.key("results").begin_array();
  for (const int threads : thread_counts) {
    const RunResult off = run_best(fibers, threads, steps, false, repeat);
    const RunResult on = run_best(fibers, threads, steps, true, repeat);
    if (on.digest != off.digest) {
      digests_match = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %d threads profiled run diverges from "
                   "unprofiled baseline\n",
                   threads);
    }
    w.begin_object();
    w.member("threads", threads);
    w.key("seconds_off").raw(fixed(off.seconds, 6));
    w.key("seconds_on").raw(fixed(on.seconds, 6));
    w.key("overhead_ratio").raw(fixed(on.seconds / off.seconds, 3));
    w.member("samples", on.samples);
    w.key("profiler_self_seconds").raw(fixed(on.self_seconds, 6));
    w.member("digest_match", on.digest == off.digest);
    w.end_object();
    std::fprintf(stderr,
                 "%d threads  off %8.4fs  on %8.4fs  ratio %.3f  "
                 "(%llu samples, self %.3fms)\n",
                 threads, off.seconds, on.seconds, on.seconds / off.seconds,
                 static_cast<unsigned long long>(on.samples),
                 on.self_seconds * 1e3);
  }
  w.end_array();
  w.member("digests_match", digests_match);
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
  return digests_match ? 0 : 1;
}
