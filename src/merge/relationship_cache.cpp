#include "merge/relationship_cache.h"

#include <algorithm>
#include <ranges>

#include "merge/corner.h"
#include "merge/keys.h"
#include "obs/obs.h"
#include "sdc/writer.h"

namespace mm::merge {

namespace {

uint64_t fnv1a(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t fnv1a(uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

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

RelationshipCache::RelationshipCache(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

uint64_t RelationshipCache::content_key(const Sdc& sdc) {
  uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, sdc::write_sdc(sdc));
  // Netlist identity: extraction output depends on the design the SDC was
  // parsed against (clock keys and signatures embed port/pin names, query
  // expansion follows connectivity). Counts alone are too weak — two
  // different blocks can agree on name and pin count — so fold in every
  // port name as well.
  const netlist::Design& design = sdc.design();
  h = fnv1a(h, design.name());
  const uint64_t shape[] = {design.num_pins(), design.num_ports(),
                            design.num_nets(), design.num_instances()};
  h = fnv1a(h, reinterpret_cast<const char*>(shape), sizeof(shape));
  for (size_t p = 0; p < design.num_ports(); ++p) {
    const std::string_view name = design.port_name(netlist::PortId(p));
    h = fnv1a(h, name.data(), name.size());
  }
  return h;
}

void RelationshipCache::invalidate(const Sdc& sdc) {
  const uint64_t key = content_key(sdc);
  std::lock_guard<std::mutex> lock(mutex_);
  map_.erase(key);
}

RelationshipCache::Entry RelationshipCache::lookup_or_insert(
    uint64_t key, const std::function<Entry()>& make) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      MM_COUNT("merge/relationship_cache_hits", 1);
      return it->second;
    }
  }

  // Build outside the lock; a concurrent miss on the same key builds twice
  // and the first insert wins.
  Entry rels = make();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  MM_COUNT("merge/relationship_cache_misses", 1);
  if (map_.size() >= max_entries_ && !map_.count(key)) {
    stats_.evictions += map_.size();
    map_.clear();
  }
  auto [it, inserted] = map_.emplace(key, std::move(rels));
  return it->second;
}

std::shared_ptr<const ModeRelationships> RelationshipCache::get(
    const Sdc& sdc) {
  return lookup_or_insert(content_key(sdc), [&] {
    return std::make_shared<const ModeRelationships>(
        extract_relationships(sdc));
  });
}

std::shared_ptr<const ModeRelationships> RelationshipCache::get_corner(
    const Sdc& corner_sdc, const ModeRelationships& skeleton) {
  return lookup_or_insert(content_key(corner_sdc), [&]() -> Entry {
    if (structural_fingerprint(corner_sdc) == skeleton.structure_fp) {
      // Value-only delta fill: the skeleton's canonical keys, signatures
      // and indexes are valid verbatim for this corner (equal fingerprints
      // on the same design imply equal key derivations), so only the value
      // tables are re-scanned — no string building.
      MM_SPAN_HOT("merge/relationship_delta_fill");
      auto filled = std::make_shared<ModeRelationships>(skeleton);
      fill_clock_values(*filled, corner_sdc);
      filled->drives = corner_sdc.drives();
      filled->loads = corner_sdc.loads();
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.delta_fills;
      MM_COUNT("merge/relationship_cache_delta_fills", 1);
      return filled;
    }
    // The corner deck's structure diverged from its mode's skeleton (extra
    // clock, edited exception, reshaped drive list): full extraction.
    Entry rels = std::make_shared<const ModeRelationships>(
        extract_relationships(corner_sdc));
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.skeleton_mismatches;
    MM_COUNT("merge/relationship_cache_skeleton_mismatches", 1);
    return rels;
  });
}

void RelationshipCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

size_t RelationshipCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

RelationshipCache::Stats RelationshipCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mm::merge
