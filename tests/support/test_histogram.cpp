#include "support/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace cham::support {
namespace {

// Sparse storage must cost less than the 16 inline bins it replaces.
static_assert(sizeof(Histogram) <= 48);

/// The dense algorithm Histogram ran before its bins became sparse, copied
/// as the reference: every bin, the count, the bounds and the sum of the
/// sparse class must equal it exactly.
struct DenseHistogram {
  std::array<std::uint64_t, Histogram::kBins> bins{};
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  [[nodiscard]] int bin_index(double value) const {
    if (max <= min) return 0;
    const double t = (value - min) / (max - min);
    const int idx = static_cast<int>(t * Histogram::kBins);
    return std::clamp(idx, 0, Histogram::kBins - 1);
  }

  void rebin(double new_min, double new_max) {
    if (count == 0) {
      min = new_min;
      max = new_max;
      return;
    }
    if (new_min >= min && new_max <= max) return;
    const auto old = bins;
    const double old_min = min;
    const double old_span = max - min;
    min = std::min(min, new_min);
    max = std::max(max, new_max);
    bins.fill(0);
    for (int i = 0; i < Histogram::kBins; ++i) {
      if (old[static_cast<std::size_t>(i)] == 0) continue;
      const double center =
          old_span > 0 ? old_min + (static_cast<double>(i) + 0.5) * old_span /
                                       Histogram::kBins
                       : old_min;
      bins[static_cast<std::size_t>(bin_index(center))] +=
          old[static_cast<std::size_t>(i)];
    }
  }

  void add(double value) {
    if (count == 0) {
      min = max = value;
    } else if (value < min || value > max) {
      rebin(std::min(min, value), std::max(max, value));
    }
    bins[static_cast<std::size_t>(bin_index(value))] += 1;
    ++count;
    sum += value;
  }

  void merge(const DenseHistogram& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    rebin(std::min(min, other.min), std::max(max, other.max));
    const double other_span = other.max - other.min;
    for (int i = 0; i < Histogram::kBins; ++i) {
      const std::uint64_t c = other.bins[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      const double center =
          other_span > 0 ? other.min + (static_cast<double>(i) + 0.5) *
                                           other_span / Histogram::kBins
                         : other.min;
      bins[static_cast<std::size_t>(bin_index(center))] += c;
    }
    count += other.count;
    sum += other.sum;
  }
};

void expect_same(const Histogram& h, const DenseHistogram& d) {
  ASSERT_EQ(h.count(), d.count);
  for (int i = 0; i < Histogram::kBins; ++i)
    EXPECT_EQ(h.bin(i), d.bins[static_cast<std::size_t>(i)]) << "bin " << i;
  if (d.count > 0) {
    EXPECT_EQ(h.min(), d.min);
    EXPECT_EQ(h.max(), d.max);
  }
  EXPECT_EQ(h.total(), d.sum);
}

/// Round trip through the wire fields, as trace decoding does.
Histogram round_trip(const Histogram& h) {
  std::array<std::uint64_t, Histogram::kBins> bins{};
  for (int i = 0; i < Histogram::kBins; ++i)
    bins[static_cast<std::size_t>(i)] = h.bin(i);
  return Histogram::from_raw(bins, h.count(), h.min(), h.max(), h.total());
}

/// Mixed sample stream: zeros, negatives, exact repeats, narrow and wide
/// ranges, so histograms go empty → single-valued → spread in every order.
double draw(Rng& rng, double last) {
  switch (rng.next_below(7)) {
    case 0: return 0.0;
    case 1: return -10.0 * rng.next_double();
    case 2: return 1.5;
    case 3: return last;
    case 4: return 1e-6 * rng.next_double();
    case 5: return 1e3 * rng.next_double();
    default: return rng.next_double();
  }
}

TEST(Histogram, EmptyState) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSample) {
  Histogram h;
  h.add(3.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
}

TEST(Histogram, TracksRangeAndMean) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, CountConservedAcrossRebins) {
  Histogram h;
  Rng rng(5);
  // Values arriving in a widening pattern force repeated rebinning.
  for (int i = 0; i < 1000; ++i) {
    h.add(rng.next_double() * static_cast<double>(i + 1));
  }
  EXPECT_EQ(h.count(), 1000u);
  std::uint64_t binned = 0;
  for (int i = 0; i < Histogram::kBins; ++i) binned += h.bin(i);
  EXPECT_EQ(binned, 1000u);
}

TEST(Histogram, MergeConservesCountAndSum) {
  Histogram a, b;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) a.add(rng.next_double());
  for (int i = 0; i < 500; ++i) b.add(10.0 + rng.next_double());
  const double sum = a.total() + b.total();
  a.merge(b);
  EXPECT_EQ(a.count(), 800u);
  EXPECT_NEAR(a.total(), sum, 1e-9);
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  std::uint64_t binned = 0;
  for (int i = 0; i < Histogram::kBins; ++i) binned += a.bin(i);
  EXPECT_EQ(binned, 800u);
}

TEST(Histogram, MergeWithEmpty) {
  Histogram a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Histogram c;
  c.merge(a);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.mean(), 1.0);
}

TEST(Histogram, EqualityOnIdenticalStreams) {
  Histogram a, b;
  for (double v : {0.1, 0.2, 0.9, 0.4}) {
    a.add(v);
    b.add(v);
  }
  EXPECT_TRUE(a == b);
  b.add(0.5);
  EXPECT_FALSE(a == b);
}

TEST(Histogram, RepresentativeIsMean) {
  Histogram h;
  h.add(2.0);
  h.add(4.0);
  EXPECT_DOUBLE_EQ(h.representative(), 3.0);
}

TEST(Histogram, ConstantStreamLandsInOneBin) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.add(7.0);
  int nonzero = 0;
  for (int i = 0; i < Histogram::kBins; ++i)
    if (h.bin(i) > 0) ++nonzero;
  EXPECT_EQ(nonzero, 1);
}

TEST(Histogram, PercentileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileClampsOutOfRangeP) {
  Histogram h;
  h.add(1.0);
  h.add(3.0);
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, PercentileOfConstantStreamIsTheConstant) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
}

TEST(Histogram, PercentileIsMonotoneAndBounded) {
  Histogram h;
  Rng rng(42);
  for (int i = 0; i < 1000; ++i)
    h.add(static_cast<double>(rng.next_below(1000)) / 1000.0);
  double prev = h.percentile(0.0);
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev);
    EXPECT_LE(q, h.max());
    prev = q;
  }
  // The tail quantile must sit near the top of the range, not at the mean.
  EXPECT_GT(h.percentile(0.99), h.mean());
}

TEST(Histogram, SparseBinsMatchDenseReference) {
  constexpr int kSlots = 6;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<Histogram> sparse(kSlots);
    std::vector<DenseHistogram> dense(kSlots);
    double last = 1.0;
    for (int op = 0; op < 150; ++op) {
      const auto k = static_cast<std::size_t>(rng.next_below(kSlots));
      const auto j = static_cast<std::size_t>(rng.next_below(kSlots));
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2:
        case 3:
          last = draw(rng, last);
          sparse[k].add(last);
          dense[k].add(last);
          break;
        case 4:
        case 5:
          if (j == k) break;
          sparse[k].merge(sparse[j]);
          dense[k].merge(dense[j]);
          break;
        case 6:
          sparse[k] = round_trip(sparse[k]);
          break;
        default:
          if (rng.next_below(2) == 0) {
            sparse[k] = Histogram();
            dense[k] = DenseHistogram();
          } else {
            sparse[k] = sparse[j];
            dense[k] = dense[j];
          }
          break;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(sparse[k], dense[k]))
          << "seed " << seed << " op " << op;
    }
  }
}

TEST(Histogram, SingleValuedAndSpreadMergeBothWays) {
  DenseHistogram single_d, spread_d;
  Histogram single, spread;
  for (int i = 0; i < 5; ++i) {
    single.add(4.0);
    single_d.add(4.0);
  }
  for (double v : {-2.0, 0.0, 3.0, 9.5, 3.0}) {
    spread.add(v);
    spread_d.add(v);
  }
  Histogram a = spread;
  DenseHistogram a_d = spread_d;
  a.merge(single);
  a_d.merge(single_d);
  expect_same(a, a_d);

  Histogram b = single;
  DenseHistogram b_d = single_d;
  b.merge(spread);
  b_d.merge(spread_d);
  expect_same(b, b_d);

  Histogram empty;
  DenseHistogram empty_d;
  empty.merge(spread);
  empty_d.merge(spread_d);
  expect_same(empty, empty_d);
}

TEST(Histogram, FromRawRoundTripIsExact) {
  Histogram h;
  for (double v : {0.25, 0.25, 7.0, -1.0, 0.0}) h.add(v);
  EXPECT_TRUE(round_trip(h) == h);
  Histogram single;
  for (int i = 0; i < 3; ++i) single.add(-0.5);
  EXPECT_TRUE(round_trip(single) == single);
  EXPECT_TRUE(round_trip(Histogram()) == Histogram());
}

TEST(Histogram, InconsistentDecodedBinsSurviveAndMergeExactly) {
  // A corrupt trace may carry bins that do not sum to the count; decoding
  // must keep them as they are (chamlint reports them), and merging one
  // must still match the dense arithmetic.
  std::array<std::uint64_t, Histogram::kBins> bins{};
  bins[0] = 3;
  const Histogram bad = Histogram::from_raw(bins, 5, 1.0, 1.0, 5.0);
  EXPECT_EQ(bad.bin(0), 3u);
  EXPECT_EQ(bad.count(), 5u);

  DenseHistogram bad_d;
  bad_d.bins = bins;
  bad_d.count = 5;
  bad_d.min = bad_d.max = 1.0;
  bad_d.sum = 5.0;
  Histogram h;
  DenseHistogram h_d;
  h.add(1.0);
  h_d.add(1.0);
  h.merge(bad);
  h_d.merge(bad_d);
  expect_same(h, h_d);
}

TEST(Histogram, CopyOfSpreadHistogramIsIndependent) {
  Histogram a;
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.add(v);
  const Histogram snapshot = round_trip(a);
  Histogram b(a);
  a.add(100.0);
  EXPECT_TRUE(b == snapshot);
  EXPECT_FALSE(a == b);

  Histogram c;
  c.add(5.0);
  c = b;
  b.add(-100.0);
  EXPECT_TRUE(c == snapshot);
  EXPECT_FALSE(b == c);
}

}  // namespace
}  // namespace cham::support
