#pragma once
// Merge policies: how much constraint-value disagreement a merge may paper
// over, and at what quantified timing cost (docs/POLICIES.md).
//
// The paper merges modes only when constraint values agree within the
// relative `value_tolerance` (§3.1.2). A MergePolicy generalizes that into
// a parameterized accept rule in the spirit of convex zone merging — merge
// whenever the union is exact *or provably safe*:
//
//   exact     today's behavior. Windows are all zero, every comparison
//             falls through to within_tolerance, and the merged output is
//             byte-identical to a build without this header.
//   windowed  per-field absolute pessimism budgets. A mergeability
//             comparison that fails within_tolerance is still accepted
//             when |a - b| fits the field's window; the merged deck then
//             takes the worst-case envelope (max uncertainty, min/max
//             latency and transition span, max drive/load), so the result
//             is conservative by construction — pessimistic by at most a
//             bounded amount, never optimistic.
//
// A zero-width window is exactly the exact policy: within_tolerance already
// grants an absolute 1e-12 slop, so any comparison it rejects has
// |a - b| > 1e-12 and cannot fit a zero window either.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

namespace mm::merge {

enum class PolicyLevel : uint8_t {
  kExact = 0,
  kWindowed = 1,
};

/// Accept `a` vs `b` when they agree within the relative `rel_tol`
/// (paper §3.1.2), plus an absolute 1e-12 slop for values near zero.
inline bool within_tolerance(double a, double b, double rel_tol) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) <= rel_tol * scale + 1e-12;
}

/// Accept `a` vs `b` under an absolute pessimism window (same 1e-12
/// absolute slop as within_tolerance, so window boundaries behave like
/// tolerance boundaries).
inline bool within_window(double a, double b, double window) {
  return std::fabs(a - b) <= window + 1e-12;
}

struct MergePolicy {
  PolicyLevel level = PolicyLevel::kExact;

  // Per-field absolute windows (constraint-value units), consulted only
  // when level == kWindowed.
  double window_latency = 0.0;      // set_clock_latency, per source/flavour
  double window_uncertainty = 0.0;  // set_clock_uncertainty, per setup/hold
  double window_transition = 0.0;   // set_clock_transition, per flavour
  double window_drive_load = 0.0;   // set_driving_cell/set_drive/
                                    // set_input_transition/set_load values

  bool windowed() const { return level == PolicyLevel::kWindowed; }
  const char* name() const { return windowed() ? "windowed" : "exact"; }

  static MergePolicy exact() { return {}; }
  /// One window width for every field — the common sweep axis.
  static MergePolicy uniform(double window) {
    MergePolicy p;
    p.level = PolicyLevel::kWindowed;
    p.window_latency = p.window_uncertainty = p.window_transition =
        p.window_drive_load = window;
    return p;
  }

  /// Upper bound on the per-endpoint setup-slack pessimism the windowed
  /// envelope can introduce relative to the worst individual mode
  /// (docs/POLICIES.md "never-optimistic" sketch):
  ///   - latency: the envelope shifts launch and capture arrivals by at
  ///     most window_latency each (they cancel on same-clock paths);
  ///   - uncertainty: the max envelope tightens the required time by at
  ///     most window_uncertainty;
  ///   - transition / drive / load: a slew or load raised by at most the
  ///     window perturbs path delay through the delay calculator's gain,
  ///     bounded by kSlewDelayGain for the wire-load model in
  ///     timing/delay_calc.cpp (per-stage slew decay 0.55 keeps the
  ///     amplification geometric; 8x is a generous ceiling).
  static constexpr double kSlewDelayGain = 8.0;
  double pessimism_bound() const {
    if (!windowed()) return 0.0;
    return 2.0 * window_latency + window_uncertainty +
           kSlewDelayGain * (window_transition + window_drive_load);
  }

  /// Stable content fingerprint (FNV-1a over level + window bit patterns).
  /// 0 for the exact policy — pair-verdict caches key on it so sessions
  /// with different policies never alias (merge/session.h).
  uint64_t fingerprint() const {
    if (!windowed()) return 0;
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(static_cast<uint64_t>(level));
    auto bits = [](double d) {
      uint64_t u;
      static_assert(sizeof u == sizeof d);
      __builtin_memcpy(&u, &d, sizeof u);
      return u;
    };
    mix(bits(window_latency));
    mix(bits(window_uncertainty));
    mix(bits(window_transition));
    mix(bits(window_drive_load));
    return h != 0 ? h : 1;  // reserve 0 for exact
  }

  friend bool operator==(const MergePolicy&, const MergePolicy&) = default;
};

/// Parse a policy level name ("exact" | "windowed") — the --merge-policy
/// CLI value. Returns false on an unknown name.
inline bool parse_policy_level(const std::string& name, PolicyLevel* out) {
  if (name == "exact") {
    *out = PolicyLevel::kExact;
    return true;
  }
  if (name == "windowed") {
    *out = PolicyLevel::kWindowed;
    return true;
  }
  return false;
}

}  // namespace mm::merge
