#pragma once
// Per-pin runs of entries, stored only for the pins that have any.
//
// A per-pin answer (the clocks on a pin, the -through sets at a pin) is
// usually empty: a vector per pin costs a 24-byte header on every pin, and
// even a dense offset array costs 4 bytes per pin. PinRuns keeps one bit
// per pin, a running count per 64 pins, and compressed sparse rows over
// the marked pins only: pin p's run is entries[begin[r] .. begin[r + 1]),
// r being the number of marked pins below p.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mm::timing {

template <typename T>
class PinRuns {
 public:
  PinRuns() = default;
  explicit PinRuns(size_t num_pins)
      : marked_((num_pins + 63) / 64, 0), rank_(marked_.size() + 1, 0) {}

  /// Append `pin`'s run. Pins come in ascending order, each at most once;
  /// an empty run leaves the pin unmarked.
  void append(uint32_t pin, std::span<const T> run) {
    if (run.empty()) return;
    marked_[pin >> 6] |= uint64_t{1} << (pin & 63);
    begin_.push_back(static_cast<uint32_t>(entries_.size()));
    entries_.insert(entries_.end(), run.begin(), run.end());
  }

  /// Close the runs: after this, at() may be called and append() not.
  void finish() {
    for (size_t w = 0; w < marked_.size(); ++w) {
      rank_[w + 1] = rank_[w] + static_cast<uint32_t>(std::popcount(marked_[w]));
    }
    begin_.push_back(static_cast<uint32_t>(entries_.size()));
    begin_.shrink_to_fit();
    entries_.shrink_to_fit();
  }

  /// `pin`'s run (empty when it has none); lives as long as this object.
  std::span<const T> at(uint32_t pin) const {
    const size_t w = pin >> 6;
    if (w >= marked_.size()) return {};
    const uint64_t bit = uint64_t{1} << (pin & 63);
    if (!(marked_[w] & bit)) return {};
    const size_t r = rank_[w] + static_cast<size_t>(
                                    std::popcount(marked_[w] & (bit - 1)));
    return {entries_.data() + begin_[r], begin_[r + 1] - begin_[r]};
  }

  bool empty(uint32_t pin) const {
    const size_t w = pin >> 6;
    return w >= marked_.size() || !(marked_[w] >> (pin & 63) & 1);
  }

 private:
  std::vector<uint64_t> marked_;  // bit p: pin p has a run
  std::vector<uint32_t> rank_;    // marked pins in words [0, w)
  std::vector<uint32_t> begin_;   // per marked pin, plus one past the end
  std::vector<T> entries_;
};

}  // namespace mm::timing
