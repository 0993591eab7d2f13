// Fixed-bin histogram for delta times.
//
// ScalaTrace stores the computation time between consecutive MPI events of a
// folded loop as a histogram rather than a scalar ([27] in the paper:
// "delta times are represented in histograms for repetitive signatures").
// This lets load-imbalanced codes (Sweep3D) compress without losing the
// timing distribution the replayer needs.
//
// Storage is sparse: until a sample or a merged bin lands outside bin 0 the
// 16 bins are implicit (bin 0 holds every sample, the rest are 0), and only
// then is the bin array allocated. Most trace events never get there — a
// histogram whose range is still a single value bins everything into bin
// 0 — so an event carries 40 bytes of histogram rather than 160. The
// binning itself is independent of the storage: same bins, same wire bytes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

namespace cham::support {

class Histogram {
 public:
  static constexpr int kBins = 16;

  Histogram() = default;
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);
  Histogram(Histogram&&) noexcept = default;
  Histogram& operator=(Histogram&&) noexcept = default;

  /// Record a sample (seconds, or any non-negative quantity).
  void add(double value);

  /// Merge another histogram (used when loop iterations fold and when
  /// inter-node merging unions events across ranks).
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double total() const { return sum_; }

  /// Count in bin i of the current [min,max] range.
  [[nodiscard]] std::uint64_t bin(int i) const;

  /// Draw a representative sample for replay: the mean of the distribution.
  /// (ScalaReplay replays average delays; we keep the same policy.)
  [[nodiscard]] double representative() const { return mean(); }

  /// Approximate p-quantile (p in [0,1]) from the binned counts, using the
  /// upper edge of the bin containing the p-th sample. Empty histogram → 0;
  /// p is clamped into [0,1].
  [[nodiscard]] double percentile(double p) const;

  /// Approximate serialized footprint in bytes (for space accounting). This
  /// models the wire size Table IV accounts, not the in-memory size.
  [[nodiscard]] static constexpr std::size_t footprint_bytes() {
    return sizeof(std::uint64_t) * (kBins + 1) + sizeof(double) * 3;
  }

  [[nodiscard]] std::string to_string() const;

  bool operator==(const Histogram& other) const;

  /// Exact reconstruction from serialized state (trace deserialization).
  static Histogram from_raw(const std::array<std::uint64_t, kBins>& bins,
                            std::uint64_t count, double min, double max,
                            double sum);

 private:
  using Bins = std::array<std::uint64_t, kBins>;

  void rebin(double new_min, double new_max);
  [[nodiscard]] int bin_index(double value) const;
  /// Adds c to bin i and to count_; implicit bins allocate when i is not 0.
  void deposit(int i, std::uint64_t c);
  /// The allocated bins, materialised from the implicit ones if needed.
  Bins& spread();

  std::unique_ptr<Bins> bins_;  ///< null: bin 0 == count_, the rest 0
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace cham::support
