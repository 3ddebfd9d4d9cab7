#pragma once
// Corner-family generator: turns one generated mode family (gen/mode_gen.h)
// into an M x C MCMM deck matrix (docs/MCMM.md). A corner is a VALUE
// transformation of a mode's deck — derates on the clock network
// (latency / uncertainty / transition), on drive strengths (input
// transitions), and on pin loads — never a topology change, which is
// exactly the skeleton/delta split the MCMM engine exploits: every
// corner of a mode shares the mode's skeleton, so the engine pays M
// skeleton extractions plus M x C value fills.
//
// The transformations are uniform per corner (one multiplicative factor per
// value channel, applied to every mode), so under the exact policy a
// corner's pairwise verdicts are literally the flat verdicts of that
// corner's decks: equal values stay equal after identical scaling and
// conflicting gaps scale away from zero. Fuzz property P8 and
// tests/test_mcmm.cpp lean on this to assert per-corner byte parity
// between the corner-aware engine and C independent flat merges.
//
// Corner 0 is always the identity (the base family verbatim), so a C == 1
// matrix is the flat family and exercises the single-corner byte-identity
// contract. `structural_break_corner` deliberately violates the
// shared-skeleton assumption in one corner (an extra drive channel) to
// exercise the full-extraction fallback path. `timing_state_break_corner`
// keeps the skeleton but changes one corner's timing state (an extra case
// analysis or disable on a data-network pin), so that corner cannot share
// corner 0's refinement and must fall back to a full merge.

#include <cstdint>
#include <string>
#include <vector>

#include "gen/mode_gen.h"

namespace mm::gen {

/// A timing-state change appended to one corner's decks, on the
/// data-network pin g0/Z (the first gate of register 0's cone, present in
/// every generated design).
enum class TimingStateBreak : uint8_t {
  kNone,
  kCaseAnalysis,   // set_case_analysis 0 [get_pins g0/Z]
  kDisableTiming,  // set_disable_timing [get_pins g0/Z]
};

/// One corner's value transformation. Scales apply to the first numeric
/// argument of the matching SDC commands; 1.0 everywhere is the identity.
struct CornerSpec {
  std::string name;
  /// set_clock_latency / set_clock_uncertainty / set_clock_transition.
  double clock_scale = 1.0;
  /// set_input_transition / set_drive (drive channels).
  double drive_scale = 1.0;
  /// set_load (load channels).
  double load_scale = 1.0;
  /// Append an extra drive channel (set_input_transition on di_1) — a
  /// topology change that breaks skeleton sharing for this corner. Assumes
  /// the base family does not drive di_1 (true for mode_gen families,
  /// whose only transition carrier is di_0).
  bool structural_break = false;
  /// Append a timing-state change (see TimingStateBreak). Mergeability
  /// does not read it, so verdicts and the skeleton are unchanged; the
  /// corner's refinement is not.
  TimingStateBreak timing_state_break = TimingStateBreak::kNone;
};

struct CornerFamilyParams {
  size_t num_corners = 1;
  /// Corner c's clock_scale is 1 + c * clock_derate_step (and likewise for
  /// the other channels), so corners are distinct but ordered — the shape
  /// of a slow/typ/fast derate ladder.
  double clock_derate_step = 0.05;
  double drive_derate_step = 0.08;
  double load_derate_step = 0.10;
  /// 1-based corner index to break structurally (0 = none; corner 0 can
  /// never break — it IS the skeleton).
  size_t structural_break_corner = 0;
  /// 1-based corner index whose decks get `timing_state_break` (0 = none).
  size_t timing_state_break_corner = 0;
  TimingStateBreak timing_state_break = TimingStateBreak::kCaseAnalysis;
  /// Corner names are "<name_prefix><index>".
  std::string name_prefix = "corner";
};

/// The derate ladder described by `params` (params.num_corners entries,
/// corner 0 the identity).
std::vector<CornerSpec> make_corner_specs(const CornerFamilyParams& params);

/// Apply one corner's transformation to a mode's SDC text: each line whose
/// command carries a derated value channel gets its first numeric argument
/// scaled (deterministic "%g"-style formatting); everything else passes
/// through byte-for-byte. The identity spec returns the input verbatim.
std::string apply_corner(const std::string& sdc_text, const CornerSpec& corner);

/// An M x C deck matrix: base modes plus per-corner transformed texts.
struct CornerFamily {
  std::vector<GeneratedMode> modes;  // the base (corner 0) family
  std::vector<CornerSpec> corners;
  /// sdc_texts[m][c] = mode m's deck in corner c; column 0 is
  /// modes[m].sdc_text verbatim.
  std::vector<std::vector<std::string>> sdc_texts;
};

CornerFamily generate_corner_family(const DesignParams& design,
                                    const ModeFamilyParams& modes,
                                    const CornerFamilyParams& corners);

}  // namespace mm::gen
