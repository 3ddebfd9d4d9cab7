#pragma once
// Canonical identity keys used across the merge engine: a clock's identity
// independent of its name (sources + waveform + generation parameters), and
// an exception's anchor signature with clocks replaced by their canonical
// keys so that signatures compare across modes.
//
// The key strings are the one identity: self-describing, order-comparable,
// and valid across modes, contexts and threads alike. The production pair
// check (merge/mode_relationships.h) keeps them in sorted indexes built once
// per mode, so a pair compares them by merge-joins and binary searches.

#include <iterator>
#include <set>
#include <string>
#include <string_view>

#include "merge/types.h"

namespace mm::merge {

/// Canonical identity of a clock: same key <=> "same clock" across modes
/// (the paper's duplicate test in §3.1.1).
std::string clock_key(const Sdc& sdc, ClockId id);

/// All clock keys of a mode.
std::set<std::string> mode_clock_keys(const Sdc& sdc);

/// Anchor signature of an exception; `include_value` adds kind value (MCP
/// multiplier / delay bound) to the key.
std::string exception_signature(const Sdc& sdc, const sdc::Exception& ex,
                                bool include_value);

/// Effective launch-clock keys of an exception in its mode: the -from
/// clocks, or all the mode's clocks when the -from carries no clocks.
std::set<std::string> effective_from_keys(const Sdc& sdc,
                                          const sdc::Exception& ex);

/// True when two ascending, duplicate-free ranges of key strings share no
/// key: one merge-join pass. The Sdc-level oracle passes std::set<string>s,
/// the production check the key views of its relationship sets.
template <typename A, typename B>
bool keys_disjoint(const A& a, const B& b) {
  auto ia = std::begin(a);
  auto ib = std::begin(b);
  while (ia != std::end(a) && ib != std::end(b)) {
    const int c = std::string_view(*ia).compare(std::string_view(*ib));
    if (c == 0) return false;
    if (c < 0)
      ++ia;
    else
      ++ib;
  }
  return true;
}

}  // namespace mm::merge
