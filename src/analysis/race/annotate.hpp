// ChamRace annotation hooks: the instrumentation half of the happens-before
// race analyzer (see docs/RACE.md).
//
// The engine runs rank fibers on a pool of shard worker threads
// (sim/shard.hpp). Every piece of state that more than one fiber touches is
// annotated with RACE_READ / RACE_WRITE, and every ordering mechanism
// between fibers (a lock, an atomic flag, a wake-up) is modelled as an
// acquire/release pair on a named sync object. A registered Sink (normally
// analysis::race::RaceAnalyzer) replays the annotations through vector
// clocks and reports the access pairs that are unordered by happens-before
// — the operations that are data races when fibers run on different
// threads, found even in a single-threaded run.
//
// This header is dependency-free on purpose: it is linked as the tiny
// `chameleon_racehook` library so that sim/, trace/ and core/ can annotate
// without depending on the full analysis stack. Same pattern as the src/obs
// global sinks: a null-checked global pointer, ~1ns per annotation when no
// sink is installed. The pointer is std::atomic (acquire/release) so install
// and shutdown are safe while shard workers run.
//
// Identity rules:
//  - Locations and sync objects are named by (string literal, a, b), never
//    by raw addresses: container reallocation would silently rename an
//    address-keyed location mid-run.
//  - Tasks are fiber ids (0..P-1); the scheduler/main context is task -1.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace cham::race {

/// Receiver for annotation events. All callbacks run on the annotating
/// task's context; `on_task` has already established which task that is.
class Sink {
 public:
  virtual ~Sink() = default;

  /// Plain (race-checked) accesses to a named location.
  virtual void on_read(std::string_view loc, std::uint64_t a,
                       std::uint64_t b) = 0;
  virtual void on_write(std::string_view loc, std::uint64_t a,
                        std::uint64_t b) = 0;
  /// Accesses that the sharded engine will make std::atomic (counters,
  /// completion flags): logged for coverage, never reported as races, and
  /// carrying no happens-before edge.
  virtual void on_atomic(std::string_view loc, std::uint64_t a,
                         std::uint64_t b) = 0;

  /// Sync-object edges: release publishes the caller's clock into the named
  /// object, acquire joins it into the caller. A mutex is a release at
  /// unlock and an acquire at lock (ScopedSync inverts this deliberately:
  /// entering a critical section acquires, leaving releases).
  virtual void on_acquire(std::string_view sync, std::uint64_t a,
                          std::uint64_t b) = 0;
  virtual void on_release(std::string_view sync, std::uint64_t a,
                          std::uint64_t b) = 0;

  /// Scheduling events: the current task changed (-1 = scheduler/main),
  /// the current task forked `child`, an epoch boundary (marker collective)
  /// completed.
  virtual void on_task(int task) = 0;
  virtual void on_fork(int child) = 0;
  virtual void on_epoch() = 0;
};

/// Install/fetch the global sink. Acquire/release so a sink constructed on
/// one thread is fully visible to annotation sites on another.
Sink* sink() noexcept;
void set_sink(Sink* s) noexcept;

// --- null-checked forwarders -----------------------------------------------

inline void read(std::string_view loc, std::uint64_t a = 0,
                 std::uint64_t b = 0) {
  if (Sink* s = sink()) s->on_read(loc, a, b);
}
inline void write(std::string_view loc, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
  if (Sink* s = sink()) s->on_write(loc, a, b);
}
inline void atomic_access(std::string_view loc, std::uint64_t a = 0,
                          std::uint64_t b = 0) {
  if (Sink* s = sink()) s->on_atomic(loc, a, b);
}
inline void acquire(std::string_view sync, std::uint64_t a = 0,
                    std::uint64_t b = 0) {
  if (Sink* s = sink()) s->on_acquire(sync, a, b);
}
inline void release(std::string_view sync, std::uint64_t a = 0,
                    std::uint64_t b = 0) {
  if (Sink* s = sink()) s->on_release(sync, a, b);
}
inline void set_task(int task) {
  if (Sink* s = sink()) s->on_task(task);
}
inline void fork(int child) {
  if (Sink* s = sink()) s->on_fork(child);
}
inline void epoch() {
  if (Sink* s = sink()) s->on_epoch();
}

/// Models holding a mutex for the current scope: acquire on entry, release
/// on exit. The sharded engine replaces each distinct (name, a, b) with a
/// real lock (or a finer-grained scheme that preserves the same edges).
class ScopedSync {
 public:
  explicit ScopedSync(std::string_view sync, std::uint64_t a = 0,
                      std::uint64_t b = 0)
      : sync_(sync), a_(a), b_(b) {
    acquire(sync_, a_, b_);
  }
  ~ScopedSync() { release(sync_, a_, b_); }
  ScopedSync(const ScopedSync&) = delete;
  ScopedSync& operator=(const ScopedSync&) = delete;

 private:
  std::string_view sync_;
  std::uint64_t a_;
  std::uint64_t b_;
};

}  // namespace cham::race

// Macro spellings for the access annotations, so a future build flag can
// compile them out entirely (the inline forwarders are already ~free, but
// the sharded engine may want zero-overhead release builds).
#define RACE_READ(loc, a, b) ::cham::race::read((loc), (a), (b))
#define RACE_WRITE(loc, a, b) ::cham::race::write((loc), (a), (b))
#define RACE_ATOMIC(loc, a, b) ::cham::race::atomic_access((loc), (a), (b))
