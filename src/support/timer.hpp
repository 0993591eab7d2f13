// Host-time measurement of tool code.
//
// Timed tool sections (trace::ToolSection) never block or yield, so the
// shard worker thread that runs the section's fiber runs nothing else until
// the section ends: its monotonic elapsed time is the CPU the section
// consumed, unless the OS preempts the worker thread itself (more shards
// than free cores). CLOCK_MONOTONIC is vDSO-served (~20ns/call), an order
// of magnitude cheaper than thread-CPU clocks — essential because the
// hottest sections measure sub-microsecond work. The experiments aggregate
// these section times across ranks, mirroring the paper's aggregated
// wall-clock.
#pragma once

#include <ctime>

namespace cham::support {

/// Monotonic seconds; inside a non-blocking fiber section this equals the
/// CPU time the section consumed.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace cham::support
