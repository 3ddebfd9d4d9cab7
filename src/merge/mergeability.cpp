#include "merge/mergeability.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "merge/context.h"
#include "merge/keys.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace mm::merge {

namespace {

/// Largest windowed acceptance seen while checking one pair: the policy
/// provenance that ends up in PairVerdict. Strictly-greater updates + the
/// identical comparison visit order of both check paths (the relationship
/// check and the Sdc-level oracle) make the folded result byte-identical.
struct WindowUse {
  double used = 0.0;
  double budget = 0.0;
  const char* field = "";

  void accept(double diff, double window, const char* f) {
    if (diff > used) {
      used = diff;
      budget = window;
      field = f;
    }
  }
};

/// The policy-aware value comparison: within tolerance (exact rule), or —
/// under a windowed policy — the absolute disagreement fits the field's
/// window. A zero-width window accepts nothing within_tolerance rejects
/// (both grant the same 1e-12 absolute slop), so windowed-with-zero-windows
/// degenerates to exact.
bool value_ok(double a, double b, const MergeOptions& options, double window,
              const char* field, WindowUse& use) {
  if (within_tolerance(a, b, options.value_tolerance)) return true;
  if (!options.policy.windowed()) return false;
  const double diff = std::fabs(a - b);
  if (diff > window + 1e-12) return false;
  use.accept(diff, window, field);
  return true;
}

/// Stamp the active policy + the winning window acceptance onto a verdict
/// (mergeable or not) — every check path's single exit point.
PairVerdict finish_verdict(PairVerdict v, const MergeOptions& options,
                           const WindowUse& use) {
  v.policy = options.policy.name();
  v.window_field = use.field;
  v.window_used = use.used;
  v.window_budget = use.budget;
  return v;
}

// Window comparison of the relationship pre-screen: same checks, same
// order, same reason text as the Sdc-level check, but each value is a table
// read instead of a constraint-list scan.
std::optional<PairVerdict> clock_window_conflict(
    const ModeRelationships::ClockInfo& ca,
    const ModeRelationships::ClockInfo& cb, const MergeOptions& options,
    WindowUse& use) {
  auto conflict = [&ca](const char* category, std::string reason) {
    PairVerdict v;
    v.mergeable = false;
    v.reason = std::move(reason);
    v.category = category;
    v.subject = ca.key;
    return v;
  };
  for (size_t source = 0; source < 2; ++source) {
      for (size_t max_side = 0; max_side < 2; ++max_side) {
        if (ca.latency_present[source][max_side] &&
            cb.latency_present[source][max_side] &&
            !value_ok(ca.latency[source][max_side],
                      cb.latency[source][max_side], options,
                      options.policy.window_latency, "clock_latency", use)) {
          return conflict(
              "clock_latency",
              "clock latency mismatch on matching clock (" +
                  std::to_string(ca.latency[source][max_side]) + " vs " +
                  std::to_string(cb.latency[source][max_side]) + ")");
        }
      }
    }
    for (size_t setup : {size_t{1}, size_t{0}}) {
      if (ca.uncertainty_present[setup] && cb.uncertainty_present[setup] &&
          !value_ok(ca.uncertainty[setup], cb.uncertainty[setup], options,
                    options.policy.window_uncertainty, "clock_uncertainty",
                    use)) {
        return conflict("clock_uncertainty",
                        "clock uncertainty mismatch on matching clock");
      }
    }
    for (size_t max_side : {size_t{1}, size_t{0}}) {
      if (ca.transition_present[max_side] && cb.transition_present[max_side] &&
          !value_ok(ca.transition[max_side], cb.transition[max_side], options,
                    options.policy.window_transition, "clock_transition",
                    use)) {
        return conflict("clock_transition",
                        "clock transition mismatch on matching clock");
      }
    }
  return std::nullopt;
}

/// Shared constructors for the non-clock first-conflict verdicts, so every
/// check path fills identical category/subject provenance.
PairVerdict drive_conflict(PinId port_pin) {
  PairVerdict v;
  v.mergeable = false;
  v.reason = "drive/transition value mismatch on port";
  v.category = "drive";
  v.subject = "pin#" + std::to_string(port_pin.index());
  return v;
}

PairVerdict load_conflict(PinId port_pin) {
  PairVerdict v;
  v.mergeable = false;
  v.reason = "load value mismatch on port";
  v.category = "load";
  v.subject = "pin#" + std::to_string(port_pin.index());
  return v;
}

/// Drive/load compatibility over *effective* values. SDC semantics are
/// last-entry-wins per channel — a channel being one (port, is_transition,
/// min/max side) for drives and one port for loads — so a deck carrying a
/// superseded duplicate (real decks do; the fuzz mutation stage manufactures
/// them) must compare by what actually applies, not by every raw entry: the
/// all-pairs scan made such a deck conflict with itself (fuzz P3, case
/// 1532919352286236818). For each channel where `a` holds the effective
/// entry, probe `b`'s effective entry for the same channel. a's entries are
/// visited in source order (min side before max), identically in both
/// check paths, so the first conflict — and the verdict's reason/subject —
/// stays byte-identical across them.
std::optional<PairVerdict> drive_load_conflict_screen(
    const std::vector<sdc::DriveConstraint>& a_drives,
    const std::vector<sdc::DriveConstraint>& b_drives,
    const std::vector<sdc::LoadConstraint>& a_loads,
    const std::vector<sdc::LoadConstraint>& b_loads,
    const MergeOptions& options, WindowUse& use) {
  auto covers = [](const sdc::MinMaxFlags& mm, size_t side) {
    return side == 0 ? mm.min : mm.max;
  };
  for (size_t k = 0; k < a_drives.size(); ++k) {
    const sdc::DriveConstraint& da = a_drives[k];
    for (size_t side = 0; side < 2; ++side) {
      if (!covers(da.minmax, side)) continue;
      bool effective = true;
      for (size_t j = k + 1; j < a_drives.size() && effective; ++j) {
        effective = !(a_drives[j].port_pin == da.port_pin &&
                      a_drives[j].is_transition == da.is_transition &&
                      covers(a_drives[j].minmax, side));
      }
      if (!effective) continue;
      const sdc::DriveConstraint* db = nullptr;
      for (const sdc::DriveConstraint& cand : b_drives) {
        if (cand.port_pin == da.port_pin &&
            cand.is_transition == da.is_transition &&
            covers(cand.minmax, side)) {
          db = &cand;  // forward scan: the last match is the effective one
        }
      }
      if (db == nullptr) continue;
      if (!value_ok(da.value, db->value, options,
                    options.policy.window_drive_load, "drive", use)) {
        return drive_conflict(da.port_pin);
      }
    }
  }
  for (size_t k = 0; k < a_loads.size(); ++k) {
    const sdc::LoadConstraint& la = a_loads[k];
    bool effective = true;
    for (size_t j = k + 1; j < a_loads.size() && effective; ++j) {
      effective = a_loads[j].port_pin != la.port_pin;
    }
    if (!effective) continue;
    const sdc::LoadConstraint* lb = nullptr;
    for (const sdc::LoadConstraint& cand : b_loads) {
      if (cand.port_pin == la.port_pin) lb = &cand;
    }
    if (lb == nullptr) continue;
    if (!value_ok(la.value, lb->value, options,
                  options.policy.window_drive_load, "load", use)) {
      return load_conflict(la.port_pin);
    }
  }
  return std::nullopt;
}

PairVerdict exception_conflict(std::string anchor_sig) {
  PairVerdict v;
  v.mergeable = false;
  v.reason = "conflicting exception values on identical anchors";
  v.category = "exception_conflict";
  v.subject = std::move(anchor_sig);
  return v;
}

PairVerdict one_sided_conflict(std::string full_sig) {
  PairVerdict v;
  v.mergeable = false;
  v.reason =
      "non-false-path exception unique to one mode cannot be "
      "uniquified by clock restriction";
  v.category = "exception_one_sided";
  v.subject = std::move(full_sig);
  return v;
}

// Clock-conflict pre-screen over pre-extracted per-clock windows. Returns
// the verdict as soon as a matched clock's windows conflict, letting the
// caller skip the exception-signature work entirely for such pairs.
// Matched clocks come from a merge-join over the two key-sorted clock
// orders, so they are visited in a's canonical-key order: the first
// conflict found — and therefore the reason text — is the same as the
// Sdc-level check's.
std::optional<PairVerdict> clock_conflict_screen(
    const ModeRelationships& a, const ModeRelationships& b,
    const MergeOptions& options, WindowUse& use) {
  auto ia = a.clock_order.begin();
  auto ib = b.clock_order.begin();
  while (ia != a.clock_order.end() && ib != b.clock_order.end()) {
    const ModeRelationships::ClockInfo& ca = a.clocks[*ia];
    const ModeRelationships::ClockInfo& cb = b.clocks[*ib];
    const int c = ca.key.compare(cb.key);
    if (c < 0) {
      ++ia;
    } else if (c > 0) {
      ++ib;
    } else {
      if (std::optional<PairVerdict> v =
              clock_window_conflict(ca, cb, options, use)) {
        return v;
      }
      ++ia;
      ++ib;
    }
  }
  return std::nullopt;
}

}  // namespace

PairVerdict check_mergeable(const ModeRelationships& a,
                            const ModeRelationships& b,
                            const MergeOptions& options) {
  WindowUse use;
  // --- matched clocks: pre-screen on memoized constraint windows ----------
  if (std::optional<PairVerdict> v =
          clock_conflict_screen(a, b, options, use)) {
    MM_COUNT("merge/mergeability_prescreen_conflicts", 1);
    return finish_verdict(*v, options, use);
  }

  // --- drive / load compatibility ------------------------------------------
  if (std::optional<PairVerdict> v = drive_load_conflict_screen(
          a.drives, b.drives, a.loads, b.loads, options, use)) {
    return finish_verdict(std::move(*v), options, use);
  }

  // --- exceptions ------------------------------------------------------------
  // Same anchors, different kind/value: conflicting unless uniquifiable.
  for (const ModeRelationships::ExceptionInfo& ex : b.exceptions) {
    const ModeRelationships::ExceptionInfo* other = a.find_anchor(ex.sig_anchor);
    if (other == nullptr) continue;
    if (other->kind == ex.kind && other->value == ex.value) continue;
    if (keys_disjoint(a.keys_of(a.launch_clocks(*other)),
                      b.keys_of(b.launch_clocks(ex)))) {
      continue;
    }
    // Waive when both modes already carry the identical ambiguous pair:
    // each resolves it with the same precedence, so the merge introduces
    // no conflict that was not present in every source.
    if (a.has_full_sig(ex.sig_full) && b.has_full_sig(other->sig_full)) {
      continue;
    }
    return finish_verdict(exception_conflict(ex.sig_anchor), options, use);
  }

  // Non-false-path exception present in one mode only and not uniquifiable.
  auto check_one_sided = [](const ModeRelationships& holder,
                            const ModeRelationships& other) -> PairVerdict {
    for (const ModeRelationships::ExceptionInfo& ex : holder.exceptions) {
      if (ex.kind == sdc::ExceptionKind::kFalsePath) continue;  // droppable
      if (other.has_full_sig(ex.sig_full)) continue;            // common
      if (!keys_disjoint(holder.keys_of(holder.launch_clocks(ex)),
                         other.keys_of(other.clock_order))) {
        return one_sided_conflict(ex.sig_full);
      }
    }
    return PairVerdict{};
  };
  PairVerdict v = check_one_sided(a, b);
  if (!v.mergeable) return finish_verdict(std::move(v), options, use);
  v = check_one_sided(b, a);
  if (!v.mergeable) return finish_verdict(std::move(v), options, use);

  return finish_verdict(PairVerdict{}, options, use);
}

PairVerdict check_mergeable_corners(
    const std::vector<const ModeRelationships*>& a,
    const std::vector<const ModeRelationships*>& b, const CornerSet& corners,
    const MergeOptions& options) {
  MM_ASSERT(a.size() == corners.size() && b.size() == corners.size());
  PairVerdict primary;
  for (CornerId c = 0; c < corners.size(); ++c) {
    PairVerdict v = check_mergeable(*a[c], *b[c], options);
    if (!v.mergeable) return with_corner_provenance(std::move(v), c, corners);
    if (c == kPrimaryCorner) primary = std::move(v);
  }
  return with_corner_provenance(std::move(primary),
                                static_cast<CornerId>(corners.size()), corners);
}

PairVerdict with_corner_provenance(PairVerdict v, CornerId stop,
                                   const CornerSet& corners) {
  // At C == 1 the corner fields stay at their flat defaults, so the
  // combined verdict is the flat verdict member for member.
  if (corners.single()) return v;
  if (stop < corners.size()) {
    v.corner = corners.name(stop);
    v.corner_id = stop;
    v.corners_checked = stop + 1;
  } else {
    v.corners_checked = static_cast<uint32_t>(corners.size());
  }
  return v;
}

PairVerdict check_mergeable(const Sdc& a, const Sdc& b,
                            const MergeOptions& options) {
  WindowUse use;
  // --- matched clocks: clock-based constraint value compatibility ----------
  // Map clock key -> clock id per mode; compare constraints on shared keys.
  std::map<std::string, ClockId> a_clocks, b_clocks;
  for (size_t i = 0; i < a.num_clocks(); ++i)
    a_clocks.emplace(clock_key(a, ClockId(i)), ClockId(i));
  for (size_t i = 0; i < b.num_clocks(); ++i)
    b_clocks.emplace(clock_key(b, ClockId(i)), ClockId(i));

  for (const auto& [key, ca] : a_clocks) {
    auto it = b_clocks.find(key);
    if (it == b_clocks.end()) continue;
    const ClockId cb = it->second;
    auto conflict = [&key](const char* category, std::string reason) {
      PairVerdict v;
      v.mergeable = false;
      v.reason = std::move(reason);
      v.category = category;
      v.subject = key;
      return v;
    };

    // Latencies (per source flag + flavor).
    auto latency = [](const Sdc& sdc, ClockId c, bool source, bool max_side,
                      bool& present) {
      double v = 0.0;
      present = false;
      for (const sdc::ClockLatency& lat : sdc.clock_latencies()) {
        if (lat.clock != c || lat.source != source) continue;
        if (max_side ? !lat.minmax.max : !lat.minmax.min) continue;
        v = lat.value;
        present = true;
      }
      return v;
    };
    for (bool source : {false, true}) {
      for (bool max_side : {false, true}) {
        bool pa = false, pb = false;
        const double va = latency(a, ca, source, max_side, pa);
        const double vb = latency(b, cb, source, max_side, pb);
        if (pa && pb &&
            !value_ok(va, vb, options, options.policy.window_latency,
                      "clock_latency", use)) {
          return finish_verdict(
              conflict("clock_latency",
                       "clock latency mismatch on matching clock (" +
                           std::to_string(va) + " vs " + std::to_string(vb) +
                           ")"),
              options, use);
        }
      }
    }

    // Uncertainties.
    auto uncertainty = [](const Sdc& sdc, ClockId c, bool setup,
                          bool& present) {
      double v = 0.0;
      present = false;
      for (const sdc::ClockUncertainty& unc : sdc.clock_uncertainties()) {
        if (unc.clock != c) continue;
        if (setup ? !unc.setup_hold.setup : !unc.setup_hold.hold) continue;
        v = unc.value;
        present = true;
      }
      return v;
    };
    for (bool setup : {true, false}) {
      bool pa = false, pb = false;
      const double va = uncertainty(a, ca, setup, pa);
      const double vb = uncertainty(b, cb, setup, pb);
      if (pa && pb &&
          !value_ok(va, vb, options, options.policy.window_uncertainty,
                    "clock_uncertainty", use)) {
        return finish_verdict(
            conflict("clock_uncertainty",
                     "clock uncertainty mismatch on matching clock"),
            options, use);
      }
    }

    // Transitions.
    auto transition = [](const Sdc& sdc, ClockId c, bool max_side,
                         bool& present) {
      double v = 0.0;
      present = false;
      for (const sdc::ClockTransition& tr : sdc.clock_transitions()) {
        if (tr.clock != c) continue;
        if (max_side ? !tr.minmax.max : !tr.minmax.min) continue;
        v = tr.value;
        present = true;
      }
      return v;
    };
    for (bool max_side : {true, false}) {
      bool pa = false, pb = false;
      const double va = transition(a, ca, max_side, pa);
      const double vb = transition(b, cb, max_side, pb);
      if (pa && pb &&
          !value_ok(va, vb, options, options.policy.window_transition,
                    "clock_transition", use)) {
        return finish_verdict(
            conflict("clock_transition",
                     "clock transition mismatch on matching clock"),
            options, use);
      }
    }
  }

  // --- drive / load compatibility ------------------------------------------
  if (std::optional<PairVerdict> v = drive_load_conflict_screen(
          a.drives(), b.drives(), a.loads(), b.loads(), options, use)) {
    return finish_verdict(std::move(*v), options, use);
  }

  // --- exceptions ------------------------------------------------------------
  const std::set<std::string> a_keys = mode_clock_keys(a);
  const std::set<std::string> b_keys = mode_clock_keys(b);

  std::set<std::string> a_sigs, b_sigs;
  for (const sdc::Exception& ex : a.exceptions())
    a_sigs.insert(exception_signature(a, ex, true));
  for (const sdc::Exception& ex : b.exceptions())
    b_sigs.insert(exception_signature(b, ex, true));

  // Same anchors, different kind/value: conflicting unless uniquifiable.
  std::map<std::string, std::pair<const sdc::Exception*, const Sdc*>> by_anchor;
  for (const sdc::Exception& ex : a.exceptions()) {
    by_anchor.emplace(exception_signature(a, ex, /*include_value=*/false),
                      std::make_pair(&ex, &a));
  }
  for (const sdc::Exception& ex : b.exceptions()) {
    const std::string sig = exception_signature(b, ex, /*include_value=*/false);
    auto it = by_anchor.find(sig);
    if (it == by_anchor.end()) continue;
    const sdc::Exception& other = *it->second.first;
    if (other.kind == ex.kind && other.value == ex.value) continue;
    // Conflicting values on identical anchors; uniquifiable only if the two
    // exceptions' effective launch clocks are disjoint.
    if (keys_disjoint(effective_from_keys(a, other), effective_from_keys(b, ex))) {
      continue;
    }
    // Waive when both modes already carry the identical ambiguous pair:
    // each resolves it with the same precedence, so the merge introduces
    // no conflict that was not present in every source.
    if (a_sigs.count(exception_signature(b, ex, /*include_value=*/true)) &&
        b_sigs.count(exception_signature(a, other, /*include_value=*/true))) {
      continue;
    }
    return finish_verdict(exception_conflict(sig), options, use);
  }

  // Non-false-path exception present in one mode only and not uniquifiable:
  // the merged mode would either loosen (MCP) or tighten (min/max) the
  // other mode's paths — mark non-mergeable.
  auto check_one_sided = [&](const Sdc& holder,
                             const std::set<std::string>& holder_sigs_other,
                             const std::set<std::string>& other_keys)
      -> PairVerdict {
    for (const sdc::Exception& ex : holder.exceptions()) {
      if (ex.kind == sdc::ExceptionKind::kFalsePath) continue;  // droppable
      const std::string sig =
          exception_signature(holder, ex, /*include_value=*/true);
      if (holder_sigs_other.count(sig)) continue;  // common exception
      if (!keys_disjoint(effective_from_keys(holder, ex), other_keys)) {
        return one_sided_conflict(sig);
      }
    }
    return PairVerdict{};
  };
  PairVerdict v = check_one_sided(a, b_sigs, b_keys);
  if (!v.mergeable) return finish_verdict(std::move(v), options, use);
  v = check_one_sided(b, a_sigs, a_keys);
  if (!v.mergeable) return finish_verdict(std::move(v), options, use);

  return finish_verdict(PairVerdict{}, options, use);
}

MergeabilityGraph::MergeabilityGraph(const std::vector<const Sdc*>& modes,
                                     MergeContext& ctx) {
  build(modes, ctx);
  ctx.export_stats();
}

MergeabilityGraph::MergeabilityGraph(size_t n, std::vector<uint8_t> adj,
                                     std::vector<std::string> reasons)
    : n_(n), adj_(std::move(adj)), reasons_(std::move(reasons)) {}

void MergeabilityGraph::build(const std::vector<const Sdc*>& modes,
                              MergeContext& ctx) {
  const MergeOptions& options = ctx.options();
  ThreadPool& pool = ctx.pool();
  n_ = modes.size();
  adj_.assign(n_ * n_, 0);
  reasons_.assign(n_ * n_, std::string());
  MM_SPAN("merge/mergeability");
  const size_t num_pairs = n_ * (n_ - 1) / 2;
  MM_COUNT("merge/mergeability_pairs", num_pairs);
  for (size_t i = 0; i < n_; ++i) adj_[i * n_ + i] = 1;
  if (n_ < 2) return;

  // Each mode's relationship set is extracted once (memoized across runs by
  // the content-addressed cache), not re-derived inside every pair.
  std::vector<std::shared_ptr<const ModeRelationships>> rels(n_);
  pool.parallel_for(n_,
                    [&](size_t i) { rels[i] = ctx.relationships(*modes[i]); });

  // Flattened upper-triangle pair index. Every pair writes only its own
  // verdict slot and the fill below runs in index order, so adjacency and
  // reasons are bit-identical to the serial i/j loop.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(num_pairs);
  for (uint32_t i = 0; i + 1 < n_; ++i) {
    for (uint32_t j = i + 1; j < n_; ++j) pairs.emplace_back(i, j);
  }
  std::vector<PairVerdict> verdicts(pairs.size());
  // Pairs are cheap once extraction is memoized; a minimum grain keeps the
  // queue overhead below the per-pair work.
  pool.parallel_for(pairs.size(), /*min_grain=*/16, [&](size_t p) {
    const auto [i, j] = pairs[p];
    verdicts[p] = check_mergeable(*rels[i], *rels[j], options);
  });

  for (size_t p = 0; p < pairs.size(); ++p) {
    const auto [i, j] = pairs[p];
    const PairVerdict& verdict = verdicts[p];
    adj_[i * n_ + j] = adj_[j * n_ + i] = verdict.mergeable ? 1 : 0;
    if (!verdict.mergeable) {
      reasons_[i * n_ + j] = reasons_[j * n_ + i] = verdict.reason;
    }
  }
}

size_t MergeabilityGraph::degree(size_t i) const {
  size_t d = 0;
  for (size_t j = 0; j < n_; ++j) {
    if (j != i && edge(i, j)) ++d;
  }
  return d;
}

std::vector<std::vector<size_t>> greedy_clique_cover(
    size_t n, const std::vector<uint8_t>& adj) {
  auto edge = [&](size_t i, size_t j) { return adj[i * n + j] != 0; };
  auto degree = [&](size_t i) {
    size_t d = 0;
    for (size_t j = 0; j < n; ++j) {
      if (j != i && edge(i, j)) ++d;
    }
    return d;
  };

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return degree(a) > degree(b);
  });

  std::vector<uint8_t> assigned(n, 0);
  std::vector<std::vector<size_t>> cliques;
  for (size_t seed : order) {
    if (assigned[seed]) continue;
    std::vector<size_t> clique{seed};
    assigned[seed] = 1;
    for (size_t cand : order) {
      if (assigned[cand]) continue;
      bool compatible = true;
      for (size_t member : clique) {
        if (!edge(cand, member)) {
          compatible = false;
          break;
        }
      }
      if (compatible) {
        clique.push_back(cand);
        assigned[cand] = 1;
      }
    }
    std::sort(clique.begin(), clique.end());
    cliques.push_back(std::move(clique));
  }
  return cliques;
}

std::vector<std::vector<size_t>> MergeabilityGraph::clique_cover() const {
  MM_SPAN("merge/clique_cover");
  return greedy_clique_cover(n_, adj_);
}

}  // namespace mm::merge
