// Host block of the engineering benches' JSON reports (bench_engine,
// bench_profiler, bench_scale): usable cores,
// std::thread::hardware_concurrency(), build type, compiler and
// `git describe` of the source checkout, so a committed row records where
// it was measured. Targets including this header define CHAM_BUILD_TYPE
// and CHAM_SOURCE_DIR (bench/CMakeLists.txt).
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "support/json.hpp"

namespace cham::bench {

/// Cores this process may run on (what `nproc` prints).
inline int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// `git describe --dirty` of the source checkout; "unknown" outside one.
inline std::string source_commit() {
  FILE* pipe = popen("git -C \"" CHAM_SOURCE_DIR
                     "\" describe --always --dirty --abbrev=12 2>/dev/null",
                     "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
  pclose(pipe);
  std::string out = got ? buf : "";
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

inline void write_host(support::json::Writer& w) {
  w.key("host").begin_object();
  w.member("nproc", usable_cores());
  w.member("hardware_concurrency",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.member("build_type", CHAM_BUILD_TYPE);
#if defined(__clang__)
  w.member("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.member("compiler", "gcc " __VERSION__);
#else
  w.member("compiler", "unknown");
#endif
  w.member("commit", source_commit());
  w.end_object();
}

}  // namespace cham::bench
