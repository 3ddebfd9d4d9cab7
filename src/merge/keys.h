#pragma once
// Canonical identity keys used across the merge engine: a clock's identity
// independent of its name (sources + waveform + generation parameters), and
// an exception's anchor signature with clocks replaced by their canonical
// keys so that signatures compare across modes.
//
// Two representations of the same identity:
//
//   - std::string keys (clock_key / exception_signature / ...): the
//     reference form. Self-describing, order-comparable, and the byte-wise
//     definition of identity everything else must reproduce.
//   - KeyId: a 32-bit handle into a CanonicalKeyTable that interns those
//     same strings. Equal ids <=> equal key strings *within one table*, so
//     the O(M^2) pair loop and the preliminary-merge grouping compare and
//     hash integers instead of re-deriving and comparing strings. Sorted
//     KeyId vectors (KeySet) replace std::set<std::string>, and dense
//     bitsets over ids give keys_disjoint an O(ids/64) word scan.
//
// KeyIds from different tables must never be mixed: a table defines the
// id <-> string bijection. merge::MergeContext owns one table per session
// and threads it through extraction so all ModeRelationships in a session
// share the same id space.

#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "merge/types.h"
#include "util/bitset.h"
#include "util/intern.h"

namespace mm::merge {

/// Interned canonical key. 32 bits, invalid() == never interned.
using KeyId = mm::Symbol;

/// Sorted, duplicate-free vector of interned keys (the KeyId analogue of
/// std::set<std::string>).
using KeySet = std::vector<KeyId>;

// --- string keys (the reference definition of canonical identity) ---------

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

bool keys_disjoint(const std::set<std::string>& a,
                   const std::set<std::string>& b);

// --- interned keys ---------------------------------------------------------

/// Two-pointer disjointness over sorted KeySets.
bool keys_disjoint(const KeySet& a, const KeySet& b);

/// Dense bitset over a KeySet (bit index = KeyId id), sized to the largest
/// id present. DynamicBitset::intersects handles differing sizes.
DynamicBitset keyset_bits(const KeySet& keys);

/// Thread-safe interner for canonical key strings. Builds exactly the
/// string-path keys above and interns them, so a KeyId is nothing more than
/// a handle to the reference string — parity by construction.
class CanonicalKeyTable {
 public:
  CanonicalKeyTable() = default;
  CanonicalKeyTable(const CanonicalKeyTable&) = delete;
  CanonicalKeyTable& operator=(const CanonicalKeyTable&) = delete;

  /// Intern an arbitrary key string.
  KeyId intern(std::string_view key);

  /// The key string an id stands for (copy: safe against concurrent
  /// interning).
  std::string str(KeyId id) const;

  /// Number of distinct keys interned.
  size_t num_keys() const;

  /// Total bytes of key-string payload held by the table.
  size_t bytes() const;

 private:
  mutable std::mutex mutex_;
  StringPool pool_;
  size_t bytes_ = 0;
};

}  // namespace mm::merge
