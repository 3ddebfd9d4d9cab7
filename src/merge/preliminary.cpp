#include "merge/preliminary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "merge/context.h"
#include "merge/relationship_cache.h"
#include "obs/obs.h"
#include "util/timer.h"

namespace mm::merge {

void ClockMap::register_clock(size_t mode, ClockId mode_clock, ClockId merged,
                              size_t total_modes) {
  if (to_merged.size() <= mode) to_merged.resize(total_modes);
  auto& fwd = to_merged[mode];
  if (fwd.size() <= mode_clock.index()) fwd.resize(mode_clock.index() + 1);
  fwd[mode_clock.index()] = merged;

  if (from_merged.size() <= merged.index()) {
    from_merged.resize(merged.index() + 1,
                       std::vector<ClockId>(total_modes, ClockId()));
  }
  from_merged[merged.index()][mode] = mode_clock;
}

namespace {

using ClockInfo = ModeRelationships::ClockInfo;

class PreliminaryMerger {
 public:
  PreliminaryMerger(const std::vector<const Sdc*>& modes, MergeContext& ctx)
      : modes_(modes), ctx_(ctx), options_(ctx.options()) {
    MM_ASSERT_MSG(!modes.empty(), "preliminary_merge needs >= 1 mode");
    design_ = &modes[0]->design();
    for (const Sdc* m : modes) {
      MM_ASSERT_MSG(&m->design() == design_, "modes target different designs");
    }
    result_.merged = std::make_unique<Sdc>(design_);
    // Reuse the per-mode extraction the mergeability pass cached (or pay
    // for it exactly once now); clock identity and exception grouping
    // consume the canonical keys these entries carry.
    rels_.reserve(modes_.size());
    for (const Sdc* m : modes_) rels_.push_back(ctx_.relationships(*m));
  }

  MergeResult run() {
    Stopwatch timer;
    merge_clocks();
    merge_clock_constraints();
    merge_port_delays();
    merge_case_analysis();
    merge_disables();
    merge_drive_load();
    merge_clock_exclusivity();
    merge_exceptions();
    result_.stats.preliminary_seconds = timer.elapsed_seconds();
    return std::move(result_);
  }

 private:
  Sdc& merged() { return *result_.merged; }

  // --- §3.1.1 union of clocks ---------------------------------------------

  void merge_clocks() {
    // Clock identity lookups by canonical key. Lookup-only: merged-clock
    // order is insertion order.
    std::unordered_map<std::string_view, ClockId> merged_by_key;
    for (size_t m = 0; m < modes_.size(); ++m) {
      const Sdc& sdc = *modes_[m];
      for (size_t ci = 0; ci < sdc.num_clocks(); ++ci) {
        const ClockId mode_clock(ci);
        const std::string_view key = rels_[m]->clocks[ci].key;
        auto existing = merged_by_key.find(key);
        if (existing != merged_by_key.end()) {
          // Duplicate clock (same sources + waveform): reuse.
          result_.clock_map.register_clock(m, mode_clock, existing->second,
                                           modes_.size());
          ++result_.stats.clocks_deduped;
          continue;
        }
        sdc::Clock clock = sdc.clock(mode_clock);
        clock.add = true;  // merged clocks coexist on their sources
        // Resolve name collisions by unique suffixing (paper: clkB -> clkB_1).
        if (merged().find_clock(clock.name).valid()) {
          std::string base = clock.name;
          int suffix = 1;
          while (merged().find_clock(base + "_" + std::to_string(suffix)).valid()) {
            ++suffix;
          }
          clock.name = base + "_" + std::to_string(suffix);
          result_.note("renamed clock " + base + " of mode " +
                       std::to_string(m) + " to " + clock.name);
          ++result_.stats.clocks_renamed;
        }
        const ClockId merged_id = merged().add_clock(std::move(clock));
        merged_by_key.emplace(key, merged_id);
        result_.clock_map.register_clock(m, mode_clock, merged_id,
                                         modes_.size());
        ++result_.stats.clocks_union;
      }
      // Ensure the map row exists even for clock-less modes.
      if (result_.clock_map.to_merged.size() <= m) {
        result_.clock_map.to_merged.resize(modes_.size());
      }
    }
    // Generated clocks: rewrite master_clock names into the merged space.
    for (size_t ci = 0; ci < merged().num_clocks(); ++ci) {
      sdc::Clock& clock = merged().clock_mutable(ClockId(ci));
      if (!clock.is_generated || clock.master_clock.empty()) continue;
      if (merged().find_clock(clock.master_clock).valid()) continue;
      // The master's name changed during dedup/rename: find the mode that
      // contributed this clock and map its master.
      for (size_t m = 0; m < modes_.size(); ++m) {
        if (!result_.clock_map.exists_in(ClockId(ci), m)) continue;
        const Sdc& sdc = *modes_[m];
        const ClockId master = sdc.find_clock(clock.master_clock);
        if (master.valid()) {
          const ClockId mapped = result_.clock_map.merged_of(m, master);
          if (mapped.valid()) clock.master_clock = merged().clock(mapped).name;
          break;
        }
      }
    }
    // Propagated flag: a merged clock is propagated if any contributor is.
    for (size_t ci = 0; ci < merged().num_clocks(); ++ci) {
      bool propagated = false;
      for (size_t m = 0; m < modes_.size(); ++m) {
        const ClockId mc = result_.clock_map.mode_clock_of(ClockId(ci), m);
        if (mc.valid() && modes_[m]->clock(mc).propagated) propagated = true;
      }
      merged().clock_mutable(ClockId(ci)).propagated = propagated;
    }
  }

  // --- §3.1.2 clock-based constraints ---------------------------------------

  void merge_clock_constraints() {
    for (size_t ci = 0; ci < merged().num_clocks(); ++ci) {
      const ClockId mc(ci);
      merge_latency(mc, /*source=*/false);
      merge_latency(mc, /*source=*/true);
      merge_uncertainty(mc, /*setup=*/true);
      merge_uncertainty(mc, /*setup=*/false);
      merge_transition(mc, /*max_side=*/true);
      merge_transition(mc, /*max_side=*/false);
    }
  }

  /// Generic min/max flavour merge of a clock-scalar constraint: present in
  /// every contributing mode and within tolerance -> min of mins / max of
  /// maxes (paper: "we pick the minimum of min values and maximum of max
  /// values").
  struct Flavour {
    bool present_everywhere = true;
    bool present_anywhere = false;
    double min_value = 1e300;
    double max_value = -1e300;
    bool within = true;
  };

  /// Windowed-policy envelope acceptance for a collected flavour: the whole
  /// value span fits the field's window, so emitting the span edge
  /// (min-of-mins / max-of-maxes — the same formula the in-tolerance path
  /// uses) is pessimistic by at most the window. Always false under the
  /// exact policy, keeping that path byte-identical.
  bool window_accepts(const Flavour& f, double window) const {
    return options_.policy.windowed() &&
           within_window(f.min_value, f.max_value, window);
  }

  /// Fold one constraint channel over the members that have the clock.
  /// `channel(info)` returns the channel's (value, present) from a
  /// member clock's effective constraint values (relationship_cache.h:
  /// last matching entry wins).
  template <class Channel>
  Flavour collect(ClockId merged_clock, Channel channel) {
    Flavour f;
    for (size_t m = 0; m < modes_.size(); ++m) {
      const ClockId mc = result_.clock_map.mode_clock_of(merged_clock, m);
      if (!mc.valid()) continue;  // clock absent in this mode: not counted
      const auto [v, present] = channel(rels_[m]->clocks[mc.index()]);
      if (!present) {
        f.present_everywhere = false;
        continue;
      }
      if (f.present_anywhere &&
          (!within_tolerance(v, f.min_value, options_.value_tolerance) ||
           !within_tolerance(v, f.max_value, options_.value_tolerance))) {
        f.within = false;
      }
      f.present_anywhere = true;
      f.min_value = std::min(f.min_value, v);
      f.max_value = std::max(f.max_value, v);
    }
    return f;
  }

  void merge_latency(ClockId mc, bool source) {
    for (bool max_side : {false, true}) {
      const Flavour f = collect(mc, [&](const ClockInfo& c) {
        return std::pair(c.latency[source][max_side],
                         c.latency_present[source][max_side]);
      });
      if (!f.present_anywhere) continue;
      const bool enveloped =
          !f.within && f.present_everywhere &&
          window_accepts(f, options_.policy.window_latency);
      if (!f.present_everywhere || (!f.within && !enveloped)) {
        result_.note("dropped clock latency on " + merged().clock(mc).name +
                     (f.within ? " (not common to all modes)"
                               : " (values out of tolerance)"));
        ++result_.stats.clock_constraints_dropped;
        continue;
      }
      if (enveloped) {
        result_.note("clock latency on " + merged().clock(mc).name +
                     ": kept worst-case envelope (windowed policy)");
      }
      sdc::ClockLatency lat;
      lat.clock = mc;
      lat.source = source;
      lat.minmax = max_side ? sdc::MinMaxFlags::max_only()
                            : sdc::MinMaxFlags::min_only();
      lat.value = max_side ? f.max_value : f.min_value;
      merged().clock_latencies().push_back(lat);
      ++result_.stats.clock_constraints_merged;
    }
  }

  void merge_uncertainty(ClockId mc, bool setup) {
    const Flavour f = collect(mc, [&](const ClockInfo& c) {
      return std::pair(c.uncertainty[setup], c.uncertainty_present[setup]);
    });
    if (!f.present_anywhere) return;
    if (!f.present_everywhere || !f.within) {
      // Pessimistic-safe fallback for uncertainty: take the max.
      if (!f.within && window_accepts(f, options_.policy.window_uncertainty)) {
        result_.note("uncertainty on " + merged().clock(mc).name +
                     ": kept max over modes (windowed envelope)");
      } else if (f.within || options_.value_tolerance > 0) {
        result_.note("uncertainty on " + merged().clock(mc).name +
                     ": kept max over modes (pessimistic)");
      }
    }
    sdc::ClockUncertainty unc;
    unc.clock = mc;
    unc.setup_hold = setup ? sdc::SetupHoldFlags::setup_only()
                           : sdc::SetupHoldFlags::hold_only();
    unc.value = f.max_value;  // uncertainty: larger is pessimistic-safe
    merged().clock_uncertainties().push_back(unc);
    ++result_.stats.clock_constraints_merged;
  }

  void merge_transition(ClockId mc, bool max_side) {
    const Flavour f = collect(mc, [&](const ClockInfo& c) {
      return std::pair(c.transition[max_side], c.transition_present[max_side]);
    });
    if (!f.present_anywhere) return;
    const bool enveloped = !f.within && f.present_everywhere &&
                           window_accepts(f, options_.policy.window_transition);
    if (!f.present_everywhere || (!f.within && !enveloped)) {
      result_.note("dropped clock transition on " + merged().clock(mc).name);
      ++result_.stats.clock_constraints_dropped;
      return;
    }
    if (enveloped) {
      result_.note("clock transition on " + merged().clock(mc).name +
                   ": kept worst-case envelope (windowed policy)");
    }
    sdc::ClockTransition tr;
    tr.clock = mc;
    tr.minmax = max_side ? sdc::MinMaxFlags::max_only()
                         : sdc::MinMaxFlags::min_only();
    tr.value = max_side ? f.max_value : f.min_value;
    merged().clock_transitions().push_back(tr);
    ++result_.stats.clock_constraints_merged;
  }

  // --- §3.1.3 union of external delay constraints ---------------------------

  void merge_port_delays() {
    // Union with clock mapping; identical entries dedup; subsequent entries
    // on the same (port, direction) get -add_delay.
    std::set<std::pair<uint32_t, bool>> seen_port_dir;
    std::vector<sdc::PortDelay> out;
    for (size_t m = 0; m < modes_.size(); ++m) {
      for (sdc::PortDelay pd : modes_[m]->port_delays()) {
        if (pd.clock.valid()) {
          pd.clock = result_.clock_map.merged_of(m, pd.clock);
        }
        bool duplicate = false;
        for (const sdc::PortDelay& e : out) {
          sdc::PortDelay probe = e;
          probe.add_delay = pd.add_delay;
          if (probe == pd) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        const auto key = std::make_pair(pd.port_pin.value(), pd.is_input);
        pd.add_delay = !seen_port_dir.insert(key).second;
        out.push_back(pd);
        ++result_.stats.port_delays_union;
      }
    }
    merged().port_delays() = std::move(out);
  }

  // --- §3.1.4 intersection of case_analysis ---------------------------------

  void merge_case_analysis() {
    const Sdc& first = *modes_[0];
    for (const sdc::CaseAnalysis& ca : first.case_analysis()) {
      bool in_all = true;
      for (size_t m = 1; m < modes_.size() && in_all; ++m) {
        in_all = modes_[m]->case_value(ca.pin) == ca.value;
      }
      if (in_all) {
        merged().case_analysis().push_back(ca);
        ++result_.stats.case_kept;
      }
    }
    // Count drops across all modes for the report.
    for (const Sdc* mode : modes_) {
      for (const sdc::CaseAnalysis& ca : mode->case_analysis()) {
        if (merged().case_value(ca.pin) != ca.value) ++result_.stats.case_dropped;
      }
    }
    if (result_.stats.case_dropped > 0) {
      result_.note("dropped " + std::to_string(result_.stats.case_dropped) +
                   " case_analysis value(s) not common to all modes "
                   "(refinement will disable resulting extra paths)");
    }
  }

  // --- §3.1.5 intersection of disable_timing ---------------------------------

  void merge_disables() {
    auto same = [](const sdc::DisableTiming& a, const sdc::DisableTiming& b) {
      return a.pin == b.pin && a.inst == b.inst &&
             a.from_lib_pin == b.from_lib_pin && a.to_lib_pin == b.to_lib_pin;
    };
    for (const sdc::DisableTiming& dt : modes_[0]->disables()) {
      bool in_all = true;
      for (size_t m = 1; m < modes_.size() && in_all; ++m) {
        bool found = false;
        for (const sdc::DisableTiming& other : modes_[m]->disables()) {
          if (same(dt, other)) {
            found = true;
            break;
          }
        }
        in_all = found;
      }
      if (in_all) {
        merged().disables().push_back(dt);
        ++result_.stats.disables_kept;
      } else {
        ++result_.stats.disables_dropped;
      }
    }
    for (size_t m = 1; m < modes_.size(); ++m) {
      for (const sdc::DisableTiming& dt : modes_[m]->disables()) {
        bool in_merged = false;
        for (const sdc::DisableTiming& kept : merged().disables()) {
          if (same(dt, kept)) {
            in_merged = true;
            break;
          }
        }
        if (!in_merged) ++result_.stats.disables_dropped;
      }
    }
  }

  // --- §3.1.6 drive and load constraints -------------------------------------

  void merge_drive_load() {
    // Drives and loads obey last-entry-wins per channel — (port, type,
    // min/max side) for drives, port for loads — matching the effective
    // comparison check_mergeable performs. A channel is kept when every
    // mode holds an effective entry for it and the effective values agree
    // within tolerance (or the policy window); the kept entry's value is
    // the pessimistic maximum of the effective values. Superseded
    // duplicates of a kept channel ride along verbatim: they cannot change
    // what applies (a later kept entry overrides them) and keeping them
    // makes merge a byte-level fixpoint (fuzz P3).
    auto covers = [](const sdc::MinMaxFlags& mm, size_t side) {
      return side == 0 ? mm.min : mm.max;
    };
    auto value_compatible = [&](double a, double b) {
      return within_tolerance(a, b, options_.value_tolerance) ||
             (options_.policy.windowed() &&
              within_window(a, b, options_.policy.window_drive_load));
    };
    const std::vector<sdc::DriveConstraint>& drives0 = modes_[0]->drives();
    for (size_t k = 0; k < drives0.size(); ++k) {
      const sdc::DriveConstraint& dc = drives0[k];
      // Every channel the entry covers must survive — also for superseded
      // entries, which must not resurrect a value whose channel the merge
      // dropped. Channel status compares mode 0's *effective* value.
      bool ok = true;
      bool is_effective = false;
      double max_value = dc.value;
      for (size_t side = 0; side < 2 && ok; ++side) {
        if (!covers(dc.minmax, side)) continue;
        double eff0 = dc.value;
        bool effective = true;
        for (size_t j = k + 1; j < drives0.size(); ++j) {
          if (drives0[j].port_pin == dc.port_pin &&
              drives0[j].is_transition == dc.is_transition &&
              covers(drives0[j].minmax, side)) {
            effective = false;
            eff0 = drives0[j].value;
          }
        }
        for (size_t m = 1; m < modes_.size() && ok; ++m) {
          const sdc::DriveConstraint* other = nullptr;
          for (const sdc::DriveConstraint& cand : modes_[m]->drives()) {
            if (cand.port_pin == dc.port_pin &&
                cand.is_transition == dc.is_transition &&
                covers(cand.minmax, side)) {
              other = &cand;  // forward scan: last match is effective
            }
          }
          ok = other != nullptr && value_compatible(other->value, eff0);
          if (ok && effective) max_value = std::max(max_value, other->value);
        }
        is_effective = is_effective || effective;
      }
      if (ok) {
        sdc::DriveConstraint out = dc;
        // Pessimistic pick within the tolerance window; superseded entries
        // keep their value (the effective entry downstream overrides them,
        // which also keeps merge a byte-level fixpoint).
        if (is_effective) out.value = max_value;
        merged().drives().push_back(out);
        ++result_.stats.drive_load_kept;
      } else {
        ++result_.stats.drive_load_dropped;
      }
    }
    const std::vector<sdc::LoadConstraint>& loads0 = modes_[0]->loads();
    for (size_t k = 0; k < loads0.size(); ++k) {
      const sdc::LoadConstraint& lc = loads0[k];
      double eff0 = lc.value;
      bool effective = true;
      for (size_t j = k + 1; j < loads0.size(); ++j) {
        if (loads0[j].port_pin == lc.port_pin) {
          effective = false;
          eff0 = loads0[j].value;
        }
      }
      bool ok = true;
      double max_value = lc.value;
      for (size_t m = 1; m < modes_.size() && ok; ++m) {
        const sdc::LoadConstraint* other = nullptr;
        for (const sdc::LoadConstraint& cand : modes_[m]->loads()) {
          if (cand.port_pin == lc.port_pin) other = &cand;
        }
        ok = other != nullptr && value_compatible(other->value, eff0);
        if (ok && effective) max_value = std::max(max_value, other->value);
      }
      if (ok) {
        sdc::LoadConstraint out = lc;
        if (effective) out.value = max_value;
        merged().loads().push_back(out);
        ++result_.stats.drive_load_kept;
      } else {
        ++result_.stats.drive_load_dropped;
      }
    }

    // Design rules (max transition / capacitance): checks, not path timing;
    // the union with the tightest (minimum) value per target is
    // pessimistic-safe.
    std::map<std::pair<int, uint32_t>, double> rules;
    for (const Sdc* mode : modes_) {
      for (const sdc::DesignRule& rule : mode->design_rules()) {
        const auto key = std::make_pair(static_cast<int>(rule.kind),
                                        rule.port_pin.value());
        auto [it, inserted] = rules.emplace(key, rule.value);
        if (!inserted) it->second = std::min(it->second, rule.value);
      }
    }
    for (const auto& [key, value] : rules) {
      sdc::DesignRule rule;
      rule.kind = static_cast<sdc::DesignRule::Kind>(key.first);
      rule.port_pin = PinId(key.second);
      rule.value = value;
      merged().design_rules().push_back(rule);
    }
  }

  // --- §3.1.7 clock exclusivity ----------------------------------------------

  void merge_clock_exclusivity() {
    // Two merged clocks can coexist iff there is at least one individual
    // mode where both exist and are not declared exclusive there.
    const size_t n = merged().num_clocks();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        bool coexist = false;
        for (size_t m = 0; m < modes_.size() && !coexist; ++m) {
          const ClockId ci = result_.clock_map.mode_clock_of(ClockId(i), m);
          const ClockId cj = result_.clock_map.mode_clock_of(ClockId(j), m);
          if (!ci.valid() || !cj.valid()) continue;
          if (!modes_[m]->clocks_exclusive(ci, cj)) coexist = true;
        }
        if (coexist) continue;
        sdc::ClockGroups cg;
        cg.kind = sdc::ClockGroupKind::kPhysicallyExclusive;
        cg.name = merged().clock(ClockId(i)).name + "_" +
                  merged().clock(ClockId(j)).name;
        cg.groups = {{ClockId(i)}, {ClockId(j)}};
        merged().clock_groups().push_back(std::move(cg));
        ++result_.stats.exclusivity_constraints;
      }
    }
    // Asynchronous relations: pairs async in EVERY mode where both exist
    // stay async in the merged mode.
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        bool both_somewhere = false;
        bool always_async = true;
        for (size_t m = 0; m < modes_.size(); ++m) {
          const ClockId ci = result_.clock_map.mode_clock_of(ClockId(i), m);
          const ClockId cj = result_.clock_map.mode_clock_of(ClockId(j), m);
          if (!ci.valid() || !cj.valid()) continue;
          both_somewhere = true;
          if (!modes_[m]->clocks_async(ci, cj)) always_async = false;
        }
        if (!both_somewhere || !always_async) continue;
        sdc::ClockGroups cg;
        cg.kind = sdc::ClockGroupKind::kAsynchronous;
        cg.name = "async_" + merged().clock(ClockId(i)).name + "_" +
                  merged().clock(ClockId(j)).name;
        cg.groups = {{ClockId(i)}, {ClockId(j)}};
        merged().clock_groups().push_back(std::move(cg));
        ++result_.stats.exclusivity_constraints;
      }
    }
  }

  // --- §3.1.9 / §3.1.10 exceptions -------------------------------------------

  // Group of identical exceptions (anchors + value, clocks canonicalized)
  // across modes.
  struct ExceptionGroup {
    sdc::Exception sample;  // from the first mode that has it
    size_t sample_mode = 0;
    std::vector<size_t> holders;
  };

  void merge_exceptions() {
    // Group by full signature. The map emits groups in signature order,
    // which fixes the order of the merged deck's exceptions.
    std::map<std::string_view, ExceptionGroup> groups;
    for (size_t m = 0; m < modes_.size(); ++m) {
      const auto& infos = rels_[m]->exceptions;
      const auto& exceptions = modes_[m]->exceptions();
      for (size_t e = 0; e < exceptions.size(); ++e) {
        auto [it, inserted] = groups.emplace(infos[e].sig_full,
                                             ExceptionGroup{});
        if (inserted) {
          it->second.sample = exceptions[e];
          it->second.sample_mode = m;
        }
        if (it->second.holders.empty() || it->second.holders.back() != m) {
          it->second.holders.push_back(m);
        }
      }
    }
    for (auto& [sig, group] : groups) emit_exception_group(group);
  }

  /// §3.1.9 / §3.1.10 disposition of one exception group: common -> add,
  /// else uniquify by clock restriction, else drop (FP/MCP) or keep
  /// pessimistically (min/max delay).
  void emit_exception_group(ExceptionGroup& group) {
    // Map the sample's clock references into the merged space.
    sdc::Exception ex = group.sample;
    auto map_point = [&](sdc::ExceptionPoint& pt) {
      for (ClockId& c : pt.clocks) {
        c = result_.clock_map.merged_of(group.sample_mode, c);
      }
    };
    map_point(ex.from);
    map_point(ex.to);
    for (sdc::ExceptionPoint& th : ex.throughs) map_point(th);

    if (group.holders.size() == modes_.size()) {
      // §3.1.9: present in all modes -> add directly.
      merged().exceptions().push_back(std::move(ex));
      ++result_.stats.exceptions_common;
      return;
    }

    // §3.1.10: uniquify by clock restriction.
    if (uniquify_exception(ex, group.holders)) {
      merged().exceptions().push_back(std::move(ex));
      ++result_.stats.exceptions_uniquified;
      return;
    }

    if (ex.kind == sdc::ExceptionKind::kFalsePath ||
        ex.kind == sdc::ExceptionKind::kMulticyclePath) {
      // Applying FP/MCP to other modes' paths would loosen them
      // (optimism) -> drop; §3.2 refinement restores the holder modes'
      // false paths precisely, and a dropped MCP is only pessimistic.
      ++result_.stats.exceptions_dropped;
      result_.note("dropped non-uniquifiable exception (refinement covers "
                   "false paths; dropped MCP is pessimistic-safe)");
    } else {
      // min/max delay applied to extra paths only tightens them
      // (pessimistic-safe) -> keep as-is.
      merged().exceptions().push_back(std::move(ex));
      ++result_.stats.exceptions_kept_pessimistic;
      result_.note("kept non-uniquifiable min/max-delay exception "
                   "(pessimistic on non-holder modes)");
    }
  }

  /// Restrict `ex` (already clock-mapped to merged space) to the holder
  /// modes by -from/-to clock restriction (the paper's §3.1.10 trick:
  /// startpoint pins move to a leading -through so -from can carry the
  /// launch clocks). Returns false if no safe restriction exists.
  bool uniquify_exception(sdc::Exception& ex,
                          const std::vector<size_t>& holders) {
    auto is_holder = [&](size_t m) {
      return std::find(holders.begin(), holders.end(), m) != holders.end();
    };

    // Candidate launch clocks: the exception's own -from clocks if any,
    // else the union of the holder modes' clocks (mapped).
    std::set<uint32_t> from_candidates;
    if (!ex.from.clocks.empty()) {
      for (ClockId c : ex.from.clocks) from_candidates.insert(c.value());
    } else {
      for (size_t m : holders) {
        for (size_t ci = 0; ci < modes_[m]->num_clocks(); ++ci) {
          from_candidates.insert(
              result_.clock_map.merged_of(m, ClockId(ci)).value());
        }
      }
    }
    // Safe iff every candidate clock is absent from every non-holder mode.
    bool from_safe = true;
    for (uint32_t c : from_candidates) {
      for (size_t m = 0; m < modes_.size(); ++m) {
        if (is_holder(m)) continue;
        if (result_.clock_map.exists_in(ClockId(c), m)) {
          from_safe = false;
          break;
        }
      }
      if (!from_safe) break;
    }
    if (from_safe && !from_candidates.empty()) {
      if (!ex.from.pins.empty()) {
        // Move startpoint pins to a leading -through (paper's MCP1 of A').
        sdc::ExceptionPoint through;
        through.pins = ex.from.pins;
        ex.throughs.insert(ex.throughs.begin(), std::move(through));
        ex.from.pins.clear();
      }
      ex.from.clocks.clear();
      for (uint32_t c : from_candidates) ex.from.clocks.push_back(ClockId(c));
      if (ex.comment.empty()) ex.comment = "uniquified by launch clocks";
      return true;
    }

    // Fall back to capture-clock restriction via -to.
    std::set<uint32_t> to_candidates;
    if (!ex.to.clocks.empty()) {
      for (ClockId c : ex.to.clocks) to_candidates.insert(c.value());
    } else {
      for (size_t m : holders) {
        for (size_t ci = 0; ci < modes_[m]->num_clocks(); ++ci) {
          to_candidates.insert(
              result_.clock_map.merged_of(m, ClockId(ci)).value());
        }
      }
    }
    bool to_safe = true;
    for (uint32_t c : to_candidates) {
      for (size_t m = 0; m < modes_.size(); ++m) {
        if (is_holder(m)) continue;
        if (result_.clock_map.exists_in(ClockId(c), m)) {
          to_safe = false;
          break;
        }
      }
      if (!to_safe) break;
    }
    if (to_safe && !to_candidates.empty()) {
      if (!ex.to.pins.empty()) {
        // Endpoint pins move to a trailing -through so -to can carry the
        // capture clocks. (A path's endpoint pin is on the path, so
        // -through endpoint-pin + -to clocks is equivalent.)
        sdc::ExceptionPoint through;
        through.pins = ex.to.pins;
        ex.throughs.push_back(std::move(through));
        ex.to.pins.clear();
      }
      ex.to.clocks.clear();
      for (uint32_t c : to_candidates) ex.to.clocks.push_back(ClockId(c));
      if (ex.comment.empty()) ex.comment = "uniquified by capture clocks";
      return true;
    }
    return false;
  }

  const std::vector<const Sdc*>& modes_;
  MergeContext& ctx_;
  const MergeOptions& options_;
  const netlist::Design* design_;
  MergeResult result_;
  /// Per-mode relationship sets from the session cache (aligned with
  /// modes_).
  std::vector<std::shared_ptr<const ModeRelationships>> rels_;
};

}  // namespace

MergeResult preliminary_merge(const std::vector<const Sdc*>& modes,
                              MergeContext& ctx) {
  MM_SPAN("merge/preliminary");
  return PreliminaryMerger(modes, ctx).run();
}

MergeResult preliminary_merge(const std::vector<const Sdc*>& modes,
                              const MergeOptions& options) {
  MergeContext ctx(options);
  return preliminary_merge(modes, ctx);
}

}  // namespace mm::merge
