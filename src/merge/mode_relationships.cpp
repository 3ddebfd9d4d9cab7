#include "merge/mode_relationships.h"

#include <algorithm>
#include <ranges>

#include "merge/corner.h"
#include "merge/keys.h"
#include "obs/obs.h"

namespace mm::merge {

namespace {

/// The per-corner value tables: reset and re-fill every clock constraint
/// window from the deck's raw lists (forward iteration with overwrite ==
/// last-matching-entry-wins). Shared by full extraction and the corner
/// delta fill so both produce bit-identical value tables.
void fill_clock_values(ModeRelationships& out, const Sdc& sdc) {
  for (ModeRelationships::ClockInfo& c : out.clocks) {
    for (size_t src = 0; src < 2; ++src) {
      for (size_t side = 0; side < 2; ++side) {
        c.latency[src][side] = 0.0;
        c.latency_present[src][side] = false;
      }
    }
    for (size_t i = 0; i < 2; ++i) {
      c.uncertainty[i] = 0.0;
      c.uncertainty_present[i] = false;
      c.transition[i] = 0.0;
      c.transition_present[i] = false;
    }
  }
  for (const sdc::ClockLatency& lat : sdc.clock_latencies()) {
    ModeRelationships::ClockInfo& c = out.clocks[lat.clock.index()];
    const size_t src = lat.source ? 1 : 0;
    if (lat.minmax.min) {
      c.latency[src][0] = lat.value;
      c.latency_present[src][0] = true;
    }
    if (lat.minmax.max) {
      c.latency[src][1] = lat.value;
      c.latency_present[src][1] = true;
    }
  }
  for (const sdc::ClockUncertainty& unc : sdc.clock_uncertainties()) {
    ModeRelationships::ClockInfo& c = out.clocks[unc.clock.index()];
    if (unc.setup_hold.hold) {
      c.uncertainty[0] = unc.value;
      c.uncertainty_present[0] = true;
    }
    if (unc.setup_hold.setup) {
      c.uncertainty[1] = unc.value;
      c.uncertainty_present[1] = true;
    }
  }
  for (const sdc::ClockTransition& tr : sdc.clock_transitions()) {
    ModeRelationships::ClockInfo& c = out.clocks[tr.clock.index()];
    if (tr.minmax.min) {
      c.transition[0] = tr.value;
      c.transition_present[0] = true;
    }
    if (tr.minmax.max) {
      c.transition[1] = tr.value;
      c.transition_present[1] = true;
    }
  }
}

/// Indices 0..n-1 ordered by `key(i)`, keeping the first index of each run
/// of equal keys.
template <typename Key>
std::vector<uint32_t> sorted_unique_index(size_t n, Key key) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return key(x) < key(y);
  });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](uint32_t x, uint32_t y) {
                            return key(x) == key(y);
                          }),
              order.end());
  return order;
}

}  // namespace

ModeRelationships extract_relationships(const Sdc& sdc) {
  MM_SPAN_HOT("merge/relationship_extract");
  ModeRelationships out;

  out.structure_fp = structural_fingerprint(sdc);

  // Clocks: canonical keys plus constraint windows. The shared value fill
  // reproduces check_mergeable's last-matching-entry-wins scans.
  out.clocks.resize(sdc.num_clocks());
  for (size_t i = 0; i < sdc.num_clocks(); ++i) {
    out.clocks[i].key = clock_key(sdc, ClockId(i));
  }
  out.clock_order = sorted_unique_index(
      out.clocks.size(), [&](uint32_t i) -> const std::string& {
        return out.clocks[i].key;
      });
  fill_clock_values(out, sdc);

  // Exceptions: both signature flavors + effective launch clocks. A -from
  // clock stands as its key's position in clock_order, so clocks sharing a
  // key collapse to one launch clock.
  auto clock_rank = [&](ClockId c) {
    return static_cast<uint32_t>(
        std::ranges::lower_bound(out.clock_order, out.clocks[c.index()].key,
                                 {},
                                 [&](uint32_t i) -> const std::string& {
                                   return out.clocks[i].key;
                                 }) -
        out.clock_order.begin());
  };
  out.exceptions.reserve(sdc.exceptions().size());
  for (const sdc::Exception& ex : sdc.exceptions()) {
    ModeRelationships::ExceptionInfo info;
    info.kind = ex.kind;
    info.value = ex.value;
    info.sig_anchor = exception_signature(sdc, ex, /*include_value=*/false);
    info.sig_full = exception_signature(sdc, ex, /*include_value=*/true);
    std::vector<uint32_t>& from = info.from_clocks;
    for (ClockId c : ex.from.clocks) from.push_back(clock_rank(c));
    std::sort(from.begin(), from.end());
    from.erase(std::unique(from.begin(), from.end()), from.end());
    for (uint32_t& rank : from) rank = out.clock_order[rank];
    out.exceptions.push_back(std::move(info));
  }
  out.anchor_order = sorted_unique_index(
      out.exceptions.size(), [&](uint32_t i) -> const std::string& {
        return out.exceptions[i].sig_anchor;
      });
  out.full_order = sorted_unique_index(
      out.exceptions.size(), [&](uint32_t i) -> const std::string& {
        return out.exceptions[i].sig_full;
      });

  out.drives = sdc.drives();
  out.loads = sdc.loads();
  return out;
}

const ModeRelationships::ExceptionInfo* ModeRelationships::find_anchor(
    const std::string& sig_anchor) const {
  auto proj = [this](uint32_t i) -> const std::string& {
    return exceptions[i].sig_anchor;
  };
  auto it = std::ranges::lower_bound(anchor_order, sig_anchor, {}, proj);
  if (it == anchor_order.end() || proj(*it) != sig_anchor) return nullptr;
  return &exceptions[*it];
}

bool ModeRelationships::has_full_sig(const std::string& sig_full) const {
  return std::ranges::binary_search(
      full_order, sig_full, {}, [this](uint32_t i) -> const std::string& {
        return exceptions[i].sig_full;
      });
}

std::shared_ptr<const ModeRelationships> RelationshipBuilder::get(
    const Sdc& sdc) {
  built_.fetch_add(1, std::memory_order_relaxed);
  MM_COUNT("merge/relationship_sets_built", 1);
  return std::make_shared<const ModeRelationships>(
      extract_relationships(sdc));
}

std::shared_ptr<const ModeRelationships> RelationshipBuilder::get_corner(
    const Sdc& corner_sdc, const ModeRelationships& skeleton) {
  if (structural_fingerprint(corner_sdc) != skeleton.structure_fp) {
    // The corner deck's structure diverged from its mode's skeleton (extra
    // clock, edited exception, reshaped drive list): full extraction.
    skeleton_mismatches_.fetch_add(1, std::memory_order_relaxed);
    MM_COUNT("merge/relationship_skeleton_mismatches", 1);
    return get(corner_sdc);
  }
  // Value-only delta fill: the skeleton's canonical keys, signatures and
  // indexes are valid verbatim for this corner (equal fingerprints on the
  // same design imply equal key derivations), so only the value tables are
  // re-scanned — no string building.
  MM_SPAN_HOT("merge/relationship_delta_fill");
  auto filled = std::make_shared<ModeRelationships>(skeleton);
  fill_clock_values(*filled, corner_sdc);
  filled->drives = corner_sdc.drives();
  filled->loads = corner_sdc.loads();
  built_.fetch_add(1, std::memory_order_relaxed);
  delta_fills_.fetch_add(1, std::memory_order_relaxed);
  MM_COUNT("merge/relationship_sets_built", 1);
  MM_COUNT("merge/relationship_delta_fills", 1);
  return filled;
}

RelationshipBuilder::Stats RelationshipBuilder::stats() const {
  return {built_.load(std::memory_order_relaxed),
          delta_fills_.load(std::memory_order_relaxed),
          skeleton_mismatches_.load(std::memory_order_relaxed)};
}

}  // namespace mm::merge
