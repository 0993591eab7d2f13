#include "cluster/signature.hpp"

#include <algorithm>

namespace cham::cluster {

std::uint64_t signature_distance(const RankSignature& a,
                                 const RankSignature& b) {
  const std::uint64_t ds = a.src > b.src ? a.src - b.src : b.src - a.src;
  const std::uint64_t dd = a.dest > b.dest ? a.dest - b.dest : b.dest - a.dest;
  const std::uint64_t sum = ds + dd;
  return sum < ds ? ~0ull : sum;  // saturate on wrap
}

void IntervalSignature::observe(const trace::EventRecord& event) {
  if (std::find(order_.rbegin(), order_.rend(), event.stack_sig) ==
      order_.rend()) {
    order_.push_back(event.stack_sig);
  }
  // The paper notes the SRC/DEST signatures "often cover other parameters
  // as well (e.g., count)": folding the transfer size into the feature
  // separates behaviour groups that share endpoints but differ in message
  // size (remainder blocks), without losing the geometric distance.
  const std::uint64_t size_term = event.bytes / 64;
  if (event.src.kind != trace::Endpoint::Kind::kNone) {
    src_mean_.add(event.src.feature() + size_term);
  }
  if (event.dest.kind != trace::Endpoint::Kind::kNone) {
    dest_mean_.add(event.dest.feature() + size_term);
  }
}

RankSignature IntervalSignature::current() const {
  RankSignature sig;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    sig.callpath ^= order_[i] * static_cast<std::uint64_t>((i % 10) + 1);
  }
  sig.src = src_mean_.mean();
  sig.dest = dest_mean_.mean();
  return sig;
}

void IntervalSignature::reset() {
  order_.clear();
  src_mean_ = {};
  dest_mean_ = {};
}

}  // namespace cham::cluster
