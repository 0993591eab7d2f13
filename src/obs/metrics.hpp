// ChamScope metrics registry.
//
// One process-wide registry of named metrics — counters, gauges, and
// histograms — each carrying a label set ({rank, tool, phase, state, ...}).
// The runtime does not update the registry on hot paths; instead the
// existing cheap accumulators (the tools' per-rank trace::PerfCounters
// slots, including the per-phase seconds their ToolSections add up, and
// Chameleon's per-rank state ledgers and held trace bytes) are *bridged*
// into the registry at report time. That keeps the instrumented code
// identical to the uninstrumented code until the moment a snapshot is
// requested.
//
// The registry is exported as one JSON document (schema
// "chameleon.metrics.v1") through support/json so escaping and number
// formatting are shared with every other emitter in the tree.
//
// Thread-safety: every entry point takes an internal mutex, so shard
// workers of the multi-threaded engine may bridge concurrently. The one
// exception is histogram(), which hands out a pointer into the registry —
// use it only while the writers are quiescent (post-run inspection).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/histogram.hpp"
#include "support/json.hpp"

namespace cham::obs {

/// Ordered label set. Order is preserved in the export; callers pass labels
/// in a canonical order ({rank, tool, phase, ...}) so output is stable.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  /// Add `delta` to a counter, creating it at zero first.
  void add_counter(std::string_view name, const Labels& labels,
                   std::uint64_t delta);

  /// Overwrite a counter (used when bridging an already-accumulated total).
  void set_counter(std::string_view name, const Labels& labels,
                   std::uint64_t value);

  /// Overwrite a gauge.
  void set_gauge(std::string_view name, const Labels& labels, double value);

  /// Record one sample into a histogram metric.
  void record(std::string_view name, const Labels& labels, double sample);

  /// Merge an existing support::Histogram into a histogram metric.
  void merge_histogram(std::string_view name, const Labels& labels,
                       const support::Histogram& histogram);

  // --- inspection (tests, report assembly) ---------------------------------
  [[nodiscard]] std::uint64_t counter(std::string_view name,
                                      const Labels& labels) const;
  [[nodiscard]] double gauge(std::string_view name, const Labels& labels) const;
  /// Pointer into the registry — only safe while no writer is active.
  [[nodiscard]] const support::Histogram* histogram(std::string_view name,
                                                    const Labels& labels) const;
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(m_);
    return metrics_.size();
  }
  [[nodiscard]] bool empty() const {
    const std::lock_guard<std::mutex> lock(m_);
    return metrics_.empty();
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(m_);
    metrics_.clear();
  }

  /// Emit the full registry into `w` as a complete JSON document:
  ///   {"schema": "chameleon.metrics.v1", "metrics": [ ... ]}
  /// Metrics appear sorted by (name, labels) so output is deterministic.
  void to_json(support::json::Writer& w) const;

  /// Convenience: the document as a string.
  [[nodiscard]] std::string to_json_string(bool pretty = true) const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    support::Histogram histogram;
  };

  /// entry/find require m_ held by the caller.
  Entry& entry(std::string_view name, const Labels& labels, Kind kind);
  [[nodiscard]] const Entry* find(std::string_view name,
                                  const Labels& labels) const;
  static std::string make_key(std::string_view name, const Labels& labels);

  mutable std::mutex m_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// Process-wide registry used by the runtime bridges. Null (the default)
/// means metrics collection is off; bridges check the pointer and return —
/// the only cost on the disabled path.
[[nodiscard]] MetricsRegistry* metrics();
void set_metrics(MetricsRegistry* registry);

}  // namespace cham::obs
