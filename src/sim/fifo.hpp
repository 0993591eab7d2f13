// FIFO queue that allocates nothing while empty: the engine's per-rank
// message queues (unexpected messages, posted receives, delivery inboxes).
//
// A std::deque allocates a 64-byte map and a 512-byte node at construction,
// even if it never holds an element, and the engine keeps seven queues per
// rank, most of them empty for the whole run. Fifo is a vector plus a head
// index. Removing the head advances the index in O(1), so draining P
// unexpected messages with MPI_ANY_SOURCE stays linear. Removing from the
// middle shifts the tail, so the remaining elements keep their order. Once
// the queue drains, its storage is reused from the start.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace cham::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;

  /// Iteration runs oldest first.
  iterator begin() {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  iterator end() { return items_.end(); }
  [[nodiscard]] std::span<const T> view() const {
    return std::span<const T>(items_).subspan(head_);
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    items_.emplace_back(std::forward<Args>(args)...);
  }

  /// Removes *it; the rest keep their order. Returns the iterator to the
  /// element after it. A removed head element is destroyed only when the
  /// queue drains or compacts, so callers move out what they keep first.
  iterator erase(iterator it) {
    if (it != begin()) return items_.erase(it);
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      // A queue that never drains must not keep its consumed prefix
      // forever; dropping it once it is half the storage stays O(1)
      // amortised.
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
    return begin();
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 32;

  std::vector<T> items_;
  std::size_t head_ = 0;  ///< items_[0, head_) were removed
};

}  // namespace cham::sim
