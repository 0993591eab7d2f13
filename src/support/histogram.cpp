#include "support/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cham::support {

namespace {

/// Center of bin i of a range starting at lo and `span` wide; a degenerate
/// range has every bin at lo.
double bin_center(int i, double lo, double span) {
  return span > 0
             ? lo + (static_cast<double>(i) + 0.5) * span / Histogram::kBins
             : lo;
}

}  // namespace

Histogram::Histogram(const Histogram& other)
    : bins_(other.bins_ ? std::make_unique<Bins>(*other.bins_) : nullptr),
      count_(other.count_),
      min_(other.min_),
      max_(other.max_),
      sum_(other.sum_) {}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  if (!other.bins_) {
    bins_.reset();
  } else if (bins_) {
    *bins_ = *other.bins_;
  } else {
    bins_ = std::make_unique<Bins>(*other.bins_);
  }
  count_ = other.count_;
  min_ = other.min_;
  max_ = other.max_;
  sum_ = other.sum_;
  return *this;
}

std::uint64_t Histogram::bin(int i) const {
  if (bins_) return bins_->at(static_cast<std::size_t>(i));
  if (i < 0 || i >= kBins) throw std::out_of_range("Histogram::bin");
  return i == 0 ? count_ : 0;
}

Histogram::Bins& Histogram::spread() {
  if (!bins_) {
    bins_ = std::make_unique<Bins>();
    (*bins_)[0] = count_;
  }
  return *bins_;
}

void Histogram::deposit(int i, std::uint64_t c) {
  if (i != 0 || bins_) spread()[static_cast<std::size_t>(i)] += c;
  count_ += c;
}

int Histogram::bin_index(double value) const {
  if (max_ <= min_) return 0;
  const double t = (value - min_) / (max_ - min_);
  const int idx = static_cast<int>(t * kBins);
  return std::clamp(idx, 0, kBins - 1);
}

void Histogram::rebin(double new_min, double new_max) {
  if (count_ == 0) {
    min_ = new_min;
    max_ = new_max;
    return;
  }
  if (new_min >= min_ && new_max <= max_) return;
  // Redistribute existing counts into the widened range using bin centers.
  const double old_min = min_;
  const double old_span = max_ - min_;
  min_ = std::min(min_, new_min);
  max_ = std::max(max_, new_max);
  if (!bins_) {
    // Every sample sits in bin 0; the bins appear only if it moves.
    const int i = bin_index(bin_center(0, old_min, old_span));
    if (i != 0) {
      bins_ = std::make_unique<Bins>();
      (*bins_)[static_cast<std::size_t>(i)] = count_;
    }
    return;
  }
  const Bins old = *bins_;
  bins_->fill(0);
  for (int i = 0; i < kBins; ++i) {
    if (old[static_cast<std::size_t>(i)] == 0) continue;
    (*bins_)[static_cast<std::size_t>(
        bin_index(bin_center(i, old_min, old_span)))] +=
        old[static_cast<std::size_t>(i)];
  }
}

void Histogram::add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else if (value < min_ || value > max_) {
    rebin(std::min(min_, value), std::max(max_, value));
  }
  deposit(bin_index(value), 1);
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Implicit bins read bin 0 off count_, which only works while the bins
  // sum to the count. A decoded histogram's need not (chamlint flags it):
  // merging one spreads the bins first, and count_ ends at the sum of the
  // counts, not of the deposited bins.
  if (!bins_ && other.bins_ &&
      std::accumulate(other.bins_->begin(), other.bins_->end(),
                      std::uint64_t{0}) != other.count_)
    spread();
  rebin(std::min(min_, other.min_), std::max(max_, other.max_));
  const std::uint64_t count = count_ + other.count_;
  const double other_span = other.max_ - other.min_;
  for (int i = 0; i < kBins; ++i) {
    const std::uint64_t c = other.bin(i);
    if (c == 0) continue;
    deposit(bin_index(bin_center(i, other.min_, other_span)), c);
  }
  count_ = count;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  const double span = max_ - min_;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBins; ++i) {
    seen += bin(i);
    if (static_cast<double>(seen) >= target)
      return span > 0
                 ? min_ + (static_cast<double>(i) + 1.0) * span / kBins
                 : min_;
  }
  return max_;
}

bool Histogram::operator==(const Histogram& other) const {
  for (int i = 0; i < kBins; ++i)
    if (bin(i) != other.bin(i)) return false;
  return count_ == other.count_ && min_ == other.min_ && max_ == other.max_ &&
         sum_ == other.sum_;
}

Histogram Histogram::from_raw(const std::array<std::uint64_t, kBins>& bins,
                              std::uint64_t count, double min, double max,
                              double sum) {
  Histogram h;
  const bool only_bin0 =
      bins[0] == count &&
      std::all_of(bins.begin() + 1, bins.end(),
                  [](std::uint64_t b) { return b == 0; });
  if (!only_bin0) h.bins_ = std::make_unique<Bins>(bins);
  h.count_ = count;
  h.min_ = min;
  h.max_ = max;
  h.sum_ = sum;
  return h;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  os << "hist{n=" << count_ << " min=" << min_ << " max=" << max_
     << " mean=" << mean() << "}";
  return os.str();
}

}  // namespace cham::support
