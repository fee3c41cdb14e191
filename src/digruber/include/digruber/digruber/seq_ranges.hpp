#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

namespace digruber::digruber {

/// An exact set of one origin's sequence numbers, held as disjoint,
/// non-adjacent closed ranges [first, last] keyed by first. An origin
/// numbers its records densely and in order, so a fault-free run holds
/// one range per origin; memory grows with the gaps, not with the seqs.
/// Closed ranges store every u64, 0 and 2^64-1 included (a half-open
/// `last + 1` would wrap at the top). insert and contains are
/// O(log ranges) whatever order the seqs arrive in.
class SeqRanges {
 public:
  /// Adds `seq`; false when it was already present.
  bool insert(std::uint64_t seq) {
    auto next = ranges_.upper_bound(seq);  // first range starting after seq
    // `next` starts above seq, so seq + 1 cannot wrap when it exists.
    const bool joins_next = next != ranges_.end() && next->first == seq + 1;
    if (next != ranges_.begin()) {
      const auto prev = std::prev(next);
      if (seq <= prev->second) return false;
      // prev ends below seq, so prev->second + 1 cannot wrap either.
      if (prev->second + 1 == seq) {
        if (joins_next) {
          prev->second = next->second;
          ranges_.erase(next);
        } else {
          prev->second = seq;
        }
        return true;
      }
    }
    if (joins_next) {
      // Grow `next` down by one: re-key its node in place (same slot).
      const auto hint = std::next(next);
      auto node = ranges_.extract(next);
      node.key() = seq;
      ranges_.insert(hint, std::move(node));
      return true;
    }
    ranges_.emplace_hint(next, seq, seq);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const auto next = ranges_.upper_bound(seq);
    return next != ranges_.begin() && seq <= std::prev(next)->second;
  }

  /// Calls fn(seq) for every held seq, in ascending order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [first, last] : ranges_) {
      // Stops on `last` rather than past it: last may be 2^64-1.
      for (std::uint64_t seq = first;; ++seq) {
        fn(seq);
        if (seq == last) break;
      }
    }
  }

  /// Number of disjoint ranges held (one per run of consecutive seqs).
  [[nodiscard]] std::size_t range_count() const { return ranges_.size(); }

 private:
  std::map<std::uint64_t, std::uint64_t> ranges_;  ///< first -> last
};

}  // namespace digruber::digruber
