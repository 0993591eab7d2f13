#include "trace/perf.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace cham::trace {

void PerfCounters::add(const PerfCounters& other) {
  fold_windows_tested += other.fold_windows_tested;
  fold_hash_rejects += other.fold_hash_rejects;
  fold_hash_hits += other.fold_hash_hits;
  fold_false_positives += other.fold_false_positives;
  fold_deep_compares += other.fold_deep_compares;
  folds_performed += other.folds_performed;
  merge_prechecks += other.merge_prechecks;
  merge_hash_rejects += other.merge_hash_rejects;
  merge_deep_compares += other.merge_deep_compares;
  merge_deep_rejects += other.merge_deep_rejects;
  merge_memo_hits += other.merge_memo_hits;
  merge_zip_hits += other.merge_zip_hits;
  bytes_encoded += other.bytes_encoded;
  bytes_decoded += other.bytes_decoded;
  intra_seconds += other.intra_seconds;
  inter_seconds += other.inter_seconds;
  clustering_seconds += other.clustering_seconds;
}

void export_to_metrics(const PerfCounters& counters,
                       obs::MetricsRegistry& registry, std::string_view tool) {
  const obs::Labels t{{"tool", std::string(tool)}};
  registry.set_counter("cham.fold.windows_tested", t, counters.fold_windows_tested);
  registry.set_counter("cham.fold.hash_rejects", t, counters.fold_hash_rejects);
  registry.set_counter("cham.fold.hash_hits", t, counters.fold_hash_hits);
  registry.set_counter("cham.fold.false_positives", t, counters.fold_false_positives);
  registry.set_counter("cham.fold.deep_compares", t, counters.fold_deep_compares);
  registry.set_counter("cham.fold.performed", t, counters.folds_performed);
  registry.set_counter("cham.merge.prechecks", t, counters.merge_prechecks);
  registry.set_counter("cham.merge.hash_rejects", t, counters.merge_hash_rejects);
  registry.set_counter("cham.merge.deep_compares", t, counters.merge_deep_compares);
  registry.set_counter("cham.merge.deep_rejects", t, counters.merge_deep_rejects);
  registry.set_counter("cham.merge.memo_hits", t, counters.merge_memo_hits);
  registry.set_counter("cham.merge.zip_hits", t, counters.merge_zip_hits);
  const auto wire = [&](const char* dir, std::uint64_t v) {
    obs::Labels labels = t;
    labels.emplace_back("dir", dir);
    registry.set_counter("cham.wire.bytes", labels, v);
  };
  wire("encoded", counters.bytes_encoded);
  wire("decoded", counters.bytes_decoded);
  const auto phase = [&](const char* name, double seconds) {
    obs::Labels labels = t;
    labels.emplace_back("phase", name);
    registry.set_gauge("cham.phase.seconds", labels, seconds);
  };
  phase("intra", counters.intra_seconds);
  phase("inter", counters.inter_seconds);
  phase("clustering", counters.clustering_seconds);
}

std::string PerfCounters::to_string() const {
  std::ostringstream os;
  os << "fold: windows=" << fold_windows_tested
     << " hash_rejects=" << fold_hash_rejects
     << " hash_hits=" << fold_hash_hits
     << " false_positives=" << fold_false_positives
     << " deep_compares=" << fold_deep_compares
     << " folds=" << folds_performed << '\n';
  os << "merge: prechecks=" << merge_prechecks
     << " hash_rejects=" << merge_hash_rejects
     << " deep_compares=" << merge_deep_compares
     << " deep_rejects=" << merge_deep_rejects
     << " memo_hits=" << merge_memo_hits
     << " zip_hits=" << merge_zip_hits << '\n';
  os << "wire: bytes_encoded=" << bytes_encoded
     << " bytes_decoded=" << bytes_decoded << '\n';
  os.precision(6);
  os << std::fixed << "cpu: intra=" << intra_seconds
     << "s inter=" << inter_seconds << "s clustering=" << clustering_seconds
     << "s";
  return os.str();
}

}  // namespace cham::trace
