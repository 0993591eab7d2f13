// ChamScope timeline tracer — Chrome trace-event / Perfetto JSON.
//
// Records what the Chameleon *runtime itself* is doing as the simulation
// executes: fiber scheduling slices, per-rank MPI calls, protocol state
// transitions (AT→C→L→F), marker epochs, fold/inter-merge spans, and fault
// events. The output ({"traceEvents": [...]}) loads directly in Perfetto or
// chrome://tracing.
//
// Track layout (all events share pid 1):
//   tid 0        — "scheduler": one slice per fiber dispatch on shard 0,
//                  named "rank N"
//   tid -s       — "shard s": dispatch slices of scheduler shard s > 0
//   tid rank+1   — "rank N": MPI call spans, protocol spans, fault instants
//
// Enabling: the runtime consults a single global pointer (set_timeline).
// When it is null — the default — every hook is one pointer compare and a
// branch; no allocation, no clock read. The pointer itself is installed
// with release semantics and loaded with acquire, so installation is safe
// even with worker threads in flight. The Timeline object itself is
// internally synchronized: every mutating entry point takes one mutex, so
// shard workers of the multi-threaded engine may emit concurrently.
// Timestamps are per-thread CPU time, so slices on different shard tracks
// measure work, not wall-clock alignment.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace cham::obs {

/// One event argument; `token` is a pre-rendered JSON value (use the
/// arg_str/arg_num/arg_int helpers so escaping stays centralized).
struct TimelineArg {
  std::string key;
  std::string token;
};

[[nodiscard]] TimelineArg arg_str(std::string_view key, std::string_view value);
[[nodiscard]] TimelineArg arg_num(std::string_view key, double value);
[[nodiscard]] TimelineArg arg_int(std::string_view key, std::int64_t value);

class Timeline {
 public:
  /// Track id of the fiber-scheduler track; rank r's track is `r + 1`.
  static constexpr int kSchedulerTid = 0;
  static constexpr int rank_tid(int rank) { return rank + 1; }
  /// Dispatch track of scheduler shard s. Shard 0 maps onto the scheduler
  /// track (tid 0); further shards get negative tids so they can never
  /// collide with rank tracks.
  static constexpr int shard_tid(int shard) { return -shard; }
  /// ChamProf counter tracks (per-shard ready depth etc.). Deep in the
  /// negative range so counter samples never share a tid with dispatch
  /// slices — the per-tid ts-monotonicity contract stays per-feed.
  static constexpr int counter_tid(int shard) { return -1000 - shard; }

  Timeline();

  /// Set the human-readable name of a track (emitted as thread_name
  /// metadata so Perfetto labels the row).
  void set_track_name(int tid, std::string_view name);

  /// Open a duration span ("B"). Every begin must be matched by end();
  /// spans left open (crashed ranks, cancelled fibers) are force-closed by
  /// to_json() so the document always has matched B/E pairs.
  void begin(int tid, std::string_view name, std::string_view cat,
             std::vector<TimelineArg> args = {});

  /// Close the innermost open span on `tid` ("E"). No-op if none is open.
  void end(int tid);

  /// Zero-duration instant ("i", thread scope).
  void instant(int tid, std::string_view name, std::string_view cat,
               std::vector<TimelineArg> args = {});

  /// Counter sample ("C") at an explicit timestamp (µs since timeline
  /// creation — see origin_seconds()). ChamProf uses this to merge
  /// host-clock counter tracks recorded outside the timeline.
  void counter_at(double ts_us, int tid, std::string_view name, double value);

  /// The host-clock origin (thread_cpu_seconds() at construction) that
  /// event timestamps are relative to.
  [[nodiscard]] double origin_seconds() const { return t0_; }

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::size_t open_spans() const;

  /// Streaming mode: write events to `path` in chunks of `every_n` instead
  /// of holding the whole run in memory (long multi-thread runs, future
  /// `serve` jobs). Output is always compact. Call finish_flush() — not
  /// to_json() — to complete the document; metadata records are appended
  /// at the end so late track names still land. The in-memory default
  /// (never calling set_flush) is byte-for-byte unchanged. finish_flush()
  /// returns false if the stream reported an I/O error (disk full, vanished
  /// path) at any point since set_flush().
  void set_flush(const std::string& path, std::size_t every_n);
  [[nodiscard]] bool finish_flush();
  [[nodiscard]] bool flushing() const;

  /// Render the complete document. Still-open spans are closed at the
  /// current time first (this mutates the timeline). Must not be used in
  /// streaming mode (the early events are already on disk).
  [[nodiscard]] std::string to_json(bool pretty = false);

 private:
  struct Event {
    char ph;      // 'B', 'E', 'i', or 'C'
    double ts;    // microseconds since timeline creation
    int tid;
    std::string name;
    std::string cat;
    std::vector<TimelineArg> args;
  };

  [[nodiscard]] double now_us() const;
  void close_open_spans();
  void push_event(Event e);  ///< append + chunked flush; caller holds m_
  void flush_events_locked();
  static void write_event(support::json::Writer& w, const Event& e);
  void write_metadata(support::json::Writer& w) const;

  /// Guards every field below; taken by each public entry point so shard
  /// workers can emit concurrently (satellite of the ChamShard PR).
  mutable std::mutex m_;
  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
  std::map<int, int> open_depth_;
  double t0_;

  // Streaming state (set_flush). flushed_ counts events already on disk.
  std::ofstream flush_out_;
  std::size_t flush_every_ = 0;
  std::size_t flushed_ = 0;
  bool flushing_ = false;
};

/// Process-wide timeline. Null (the default) disables all tracing hooks;
/// checking this pointer is the entire cost of the disabled path.
[[nodiscard]] Timeline* timeline();
void set_timeline(Timeline* timeline);

/// RAII duration span on the global timeline. Safe during fiber
/// cancellation: the destructor runs while the FiberCancelled exception
/// unwinds, so nesting stays balanced even when a fault kills the rank.
class Span {
 public:
  Span(int tid, std::string_view name, std::string_view cat,
       std::vector<TimelineArg> args = {})
      : timeline_(timeline()), tid_(tid) {
    if (timeline_ != nullptr)
      timeline_->begin(tid_, name, cat, std::move(args));
  }
  ~Span() {
    if (timeline_ != nullptr) timeline_->end(tid_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Timeline* timeline_;
  int tid_;
};

}  // namespace cham::obs
