#pragma once
// Multi-corner data model (ROADMAP "Full MCMM"): corners of one mode differ
// in *values* — derates, loads, voltages move latencies, uncertainties,
// transitions and drive/load numbers — while the mode's *topology* (clock
// definitions, exception anchors, constraint presence) is shared. The
// engine therefore splits one mode's relationship data into
//
//   the skeleton  — the value-independent structure of the primary corner's
//                   relationship set, derived once per mode (clock keys,
//                   exception signatures and their sorted indexes,
//                   drive/load channel shape), and
//   corner values — the per-corner values riding on that structure
//                   (RelationshipBuilder::get_corner, in
//                   mode_relationships.h, fills them by a cheap value-only
//                   re-scan of the corner deck),
//
// turning modes x corners relationship extraction into modes skeleton
// extractions + modes x corners delta fills. structural_fingerprint() is the
// hash that decides whether a corner deck really shares its mode's
// skeleton: it covers exactly the inputs relationship extraction reads,
// with the value fields of the per-corner constraint lists excluded.
// Equal fingerprints (same design) imply equal clock keys, equal exception
// signatures, and an equal drive/load channel shape — so a skeleton's
// keys and indexes can be reused for the corner verbatim.

#include <cstdint>
#include <string>
#include <vector>

#include "sdc/sdc.h"

namespace mm::merge {

using Sdc = sdc::Sdc;

/// Index of a corner within a CornerSet. Corner 0 is the primary corner:
/// its deck defines the mode's skeleton and the single-corner (C=1) path
/// is byte-identical to the flat engine.
using CornerId = uint32_t;
constexpr CornerId kPrimaryCorner = 0;

/// The registered corners of an MCMM run: an ordered set of names.
/// CornerIds are positions; order is fixed at registration and shared by
/// every mode in the matrix (decks are passed corner-major per mode).
class CornerSet {
 public:
  /// Single default corner — the flat, single-corner engine.
  CornerSet() : names_{"default"} {}
  explicit CornerSet(std::vector<std::string> names)
      : names_(std::move(names)) {
    if (names_.empty()) names_.push_back("default");
  }

  CornerId add(std::string name) {
    names_.push_back(std::move(name));
    return static_cast<CornerId>(names_.size() - 1);
  }

  size_t size() const { return names_.size(); }
  bool single() const { return names_.size() == 1; }
  const std::string& name(CornerId c) const { return names_[c]; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

/// Hash of everything relationship extraction reads except per-corner
/// values: design identity, the full clock table, exceptions (kind, value,
/// setup/hold, anchor pins + clock indices), and the drive/load channel
/// shape (port, type, min/max flags — values excluded). Two decks with
/// equal fingerprints yield relationship sets that differ at most in the
/// clock value tables and the drive/load values.
uint64_t structural_fingerprint(const Sdc& sdc);

/// Hash of everything refinement and validation read from a deck: they run
/// without arrival times, so they see only value-independent timing state.
/// Covers design identity, the full clock table, exceptions with their
/// values, case analysis, set_disable_timing, clock sense stops, clock
/// groups (exclusivity included) and the I/O delay anchors (port, clock,
/// edge and flags of each set_input_delay / set_output_delay). Omits every
/// per-corner value: clock latency, uncertainty and transition, drive and
/// load values, external-delay values and design rules. Two clique merges
/// whose member and preliminary decks have equal fingerprints (and equal
/// clock maps) refine to the same fix list and validate to the same report.
uint64_t timing_state_fingerprint(const Sdc& sdc);

/// Hash of a deck's whole content: FNV-1a of its write_sdc text, mixed
/// with the design's identity — name, pin/port/net/instance counts and
/// every port name — so equal text on two distinct designs never collides.
/// The mm.journal/1 `content_key` of mode_add and mode_update events.
uint64_t content_fingerprint(const Sdc& sdc);

/// timing_state_fingerprint without the exceptions, split by the
/// timing::ModeGraph build stage that reads each field: `constants` covers
/// the design and case analysis (constant propagation), `arcs` the
/// set_disable_timing list (arc enables), `clocks` the clock table, sense
/// stops, clock groups and I/O delay anchors (clock propagation, capture
/// clocks, active points). Exceptions never reach a ModeGraph, so a view
/// built before refinement appended some is still the deck's view when
/// the key is unchanged; a view whose `constants` part is unchanged can
/// keep its constants, and one whose `arcs` part is unchanged too can keep
/// its arc enables.
struct TimingViewKey {
  uint64_t constants = 0;
  uint64_t arcs = 0;
  uint64_t clocks = 0;

  friend bool operator==(const TimingViewKey&,
                         const TimingViewKey&) = default;
};
TimingViewKey timing_view_key(const Sdc& sdc);

}  // namespace mm::merge
