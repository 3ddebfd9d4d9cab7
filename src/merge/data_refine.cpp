#include "merge/data_refine.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <unordered_set>

#include "obs/obs.h"
#include "timing/exceptions.h"
#include "timing/relationships.h"
#include "util/logger.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mm::merge {

using timing::Arc;
using timing::ArcId;
using timing::ArcKind;
using timing::CompiledExceptions;
using timing::ModeGraph;
using timing::PathState;
using timing::Propagator;
using timing::PropagationOptions;
using timing::RelationData;
using timing::RelationKey;
using timing::RelationTable;
using timing::StateKind;
using timing::StateSet;
using timing::TimingGraph;

namespace {

enum Side : int { kSetup = 0, kHold = 1 };

/// Path-enumeration cap per (startpoint, endpoint) pair in pass 3; a pair
/// over the cap keeps its extra paths (pessimistic) and is noted.
constexpr size_t kMaxEnumeratedPaths = 4096;

const StateSet& side_states(const timing::RelationData& data, int side) {
  return side == kSetup ? data.states : data.hold_states;
}

// ---------------------------------------------------------------------------
// Verdicts (the M / X / A columns of Tables 2-4)
// ---------------------------------------------------------------------------

enum class Verdict {
  kMatch,
  kFixable,   // merged times paths no individual mode times (or retimes a
              // relation whose individual state is stricter) — add constraint
  kAmbiguous,  // needs the next, finer pass
  kOptimism,   // merged fails to time something an individual mode times —
               // must never happen by construction; reported loudly
};

/// Classify one relation key, given the state set seen by EACH individual
/// mode (nullptr = the mode has no paths at this key) and the merged set.
///
/// Per-mode sets are essential — a flat union cannot reproduce the paper's
/// tables: at pass-2 key (rB/CP, rY/D) mode A false-paths the bundle while
/// mode B times all of it, so the merged mode must time all of it ("M" in
/// Table 3); a union {FP, V} would look ambiguous.
Verdict classify(std::span<const StateSet* const> mode_states,
                 const StateSet& merged, PathState* fix) {
  bool any_mode_timed = false;
  const StateSet* fully_timed_mode = nullptr;  // times every path at the key
  for (const StateSet* s : mode_states) {
    if (!s || s->empty()) continue;
    if (s->any_timed()) {
      any_mode_timed = true;
      bool has_untimed = false;
      for (const PathState& ps : *s) {
        if (!ps.is_timed()) has_untimed = true;
      }
      if (!has_untimed) fully_timed_mode = s;
    }
  }

  if (merged.all_untimed()) {
    // Merged times nothing here; fine iff no mode times anything.
    return any_mode_timed ? Verdict::kOptimism : Verdict::kMatch;
  }
  if (!any_mode_timed) {
    // Merged times paths that no individual mode times: the paper's "X".
    *fix = PathState::false_path();
    return Verdict::kFixable;
  }

  bool merged_has_untimed = false;
  StateSet merged_timed;
  for (const PathState& ps : merged) {
    if (ps.is_timed()) merged_timed.insert(ps);
    else merged_has_untimed = true;
  }

  if (fully_timed_mode && !merged_has_untimed) {
    // Every path is timed in some mode AND timed in merged: compare the
    // timed states themselves.
    StateSet required;
    for (const StateSet* s : mode_states) {
      if (!s) continue;
      for (const PathState& ps : *s) {
        if (ps.is_timed()) required.insert(ps);
      }
    }
    if (merged_timed == required) return Verdict::kMatch;
    if (merged_timed.singleton() &&
        merged_timed[0].kind == StateKind::kValid &&
        required.singleton() &&
        required[0].kind != StateKind::kValid) {
      // Every mode times the bundle with one identical exception state
      // (e.g. MCP(2)) that the merged mode lost: re-apply it.
      *fix = required[0];
      return Verdict::kFixable;
    }
    return Verdict::kAmbiguous;
  }
  return Verdict::kAmbiguous;
}

sdc::ExceptionKind kind_of(const PathState& s) {
  switch (s.kind) {
    case StateKind::kMcp: return sdc::ExceptionKind::kMulticyclePath;
    case StateKind::kMaxDelay: return sdc::ExceptionKind::kMaxDelay;
    case StateKind::kMinDelay: return sdc::ExceptionKind::kMinDelay;
    default: return sdc::ExceptionKind::kFalsePath;
  }
}

/// side_mask: bit 0 = setup, bit 1 = hold; 3 = unqualified (both).
sdc::Exception make_fix(const PathState& state, int side_mask) {
  sdc::Exception ex;
  ex.kind = kind_of(state);
  ex.value = state.value;
  ex.comment = "mode-merge refinement";
  if (side_mask == 1) ex.setup_hold = sdc::SetupHoldFlags::setup_only();
  if (side_mask == 2) ex.setup_hold = sdc::SetupHoldFlags::hold_only();
  return ex;
}

/// Result of analyzing one fix group (all keys of one endpoint, or one
/// (endpoint, launch) run, or one (startpoint, endpoint) pair) on one
/// side.
struct GroupFix {
  bool killable_all = true;  // every key either fixable-with-this-fix or a
                             // match whose merged states are untimed anyway
  bool any_fix = false;
  bool any_ambiguous = false;
  PathState fix;
  bool fix_set = false;

  bool emit_ok() const { return any_fix && killable_all; }
  bool unresolved() const { return any_fix || any_ambiguous; }
};

// ---------------------------------------------------------------------------
// The refiner
// ---------------------------------------------------------------------------

class DataRefiner {
 public:
  DataRefiner(const RefineContext& ctx, MergeResult& result,
              const MergeOptions& options)
      : ctx_(ctx),
        result_(result),
        graph_(*ctx.graph),
        analyze_hold_(options.analyze_hold),
        // Refinement only adds exceptions, which a ModeGraph never reads:
        // one merged view serves every pass, and the equivalence check
        // after them.
        merged_view_(ctx.merged_view(merged())) {}

  void run() {
    MM_SPAN("merge/data_refine");
    MergeStats& s = result_.stats;
    {
      MM_SPAN("merge/refine_pass0");
      Stopwatch timer;
      mode_exceptions_ = &ctx_.member_exceptions();
      step_clocks_on_data();
      s.pass0_seconds = timer.elapsed_seconds();
    }
    {
      MM_SPAN("merge/refine_pass1");
      Stopwatch timer;
      pass1();
      s.pass1_seconds = timer.elapsed_seconds();
    }
    {
      MM_SPAN("merge/refine_pass2");
      Stopwatch timer;
      pass2();
      s.pass2_seconds = timer.elapsed_seconds();
    }
    {
      MM_SPAN("merge/refine_pass3");
      Stopwatch timer;
      pass3();
      s.pass3_seconds = timer.elapsed_seconds();
    }
    MM_COUNT("merge/endpoints_descended_pass2", pass2_endpoints_.size());
    MM_COUNT("merge/pairs_descended_pass3", s.pass3_pairs);
    MM_COUNT("merge/paths_enumerated_pass3", s.pass3_paths_enumerated);
    MM_COUNT("merge/false_paths_emitted",
             s.pass0_pair_fixed + s.data_clock_fps_added + s.pass3_fps_added);
  }

 private:
  Sdc& merged() { return *result_.merged; }
  const ClockMap& map() const { return result_.clock_map; }
  int num_sides() const { return analyze_hold_ ? 2 : 1; }

  // --- step 1: launch clocks on the data network -----------------------------
  //
  // Clock sets are flat bit rows: row p holds `words` 64-bit words, bit c
  // set iff merged clock c reaches pin p.

  /// The launch clocks a view seeds at each active startpoint, as (pin,
  /// clock) pairs in the given clock space.
  template <typename Fn>
  void for_each_launch(const ModeGraph& mg, Fn&& fn) const {
    for (PinId sp : mg.active_startpoints()) {
      if (graph_.design().pin(sp).is_port()) {
        for (const sdc::PortDelay& pd : mg.sdc().port_delays()) {
          if (pd.is_input && pd.port_pin == sp && pd.clock.valid()) {
            fn(sp, pd.clock);
          }
        }
      } else {
        for (const timing::ClockArrival& ca : mg.clocks_on(sp)) {
          fn(sp, ca.clock);
        }
      }
    }
  }

  /// Walk a view's data network in topological order, calling
  /// step(from, to) for every enabled arc a launch clock can cross out of
  /// a pin whose row is non-empty (register CP pins cross only their
  /// launch arcs).
  template <typename Step>
  void walk_data_network(const ModeGraph& mg, const std::vector<uint64_t>& rows,
                         size_t words, Step&& step) const {
    for (PinId pin : graph_.topo_order()) {
      const uint64_t* row = &rows[pin.index() * words];
      if (std::all_of(row, row + words, [](uint64_t w) { return w == 0; })) {
        continue;
      }
      bool has_launch = false;
      for (ArcId aid : graph_.fanout(pin)) {
        if (graph_.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
      }
      for (ArcId aid : graph_.fanout(pin)) {
        if (!mg.arc_enabled(aid)) continue;
        const Arc& arc = graph_.arc(aid);
        if (has_launch && arc.kind != ArcKind::kLaunch) continue;
        step(pin.index(), arc.to.index());
      }
    }
  }

  /// Member m's launch-clock reach through its data network, clock ids
  /// mapped to merged space.
  std::vector<uint64_t> member_clock_reach(size_t m, size_t words) const {
    std::vector<uint64_t> reach(graph_.num_nodes() * words, 0);
    for_each_launch(ctx_.mode_graph(m), [&](PinId sp, sdc::ClockId c) {
      const sdc::ClockId mc = map().merged_of(m, c);
      if (!mc.valid()) return;
      reach[sp.index() * words + (mc.index() >> 6)] |= uint64_t{1}
                                                       << (mc.index() & 63);
    });
    walk_data_network(ctx_.mode_graph(m), reach, words,
                      [&](size_t from, size_t to) {
                        for (size_t w = 0; w < words; ++w) {
                          reach[to * words + w] |= reach[from * words + w];
                        }
                      });
    return reach;
  }

  void step_clocks_on_data() {
    const size_t words = (merged().num_clocks() + 63) / 64;
    if (words == 0) return;
    const size_t num_rows = graph_.num_nodes();

    // Union of individual reaches, one member per task.
    std::vector<uint64_t> allowed(num_rows * words, 0);
    std::mutex allowed_mutex;
    ctx_.pool.parallel_for(ctx_.modes.size(), [&](size_t m) {
      const std::vector<uint64_t> reach = member_clock_reach(m, words);
      std::lock_guard<std::mutex> lock(allowed_mutex);
      for (size_t i = 0; i < allowed.size(); ++i) allowed[i] |= reach[i];
    });

    // Merged simulation with the inline check: a clock reaching a pin it
    // reaches in no member becomes `set_false_path -from <clock> -through
    // <pin>` and stops there.
    std::vector<uint64_t> reach(num_rows * words, 0);
    std::vector<uint64_t> frontier(num_rows * words, 0);
    auto arrive = [&](size_t pin, size_t w, uint64_t bits) {
      const size_t i = pin * words + w;
      reach[i] |= bits & allowed[i];
      frontier[i] |= bits & ~allowed[i];
    };
    for_each_launch(*merged_view_, [&](PinId sp, sdc::ClockId c) {
      arrive(sp.index(), c.index() >> 6, uint64_t{1} << (c.index() & 63));
    });
    walk_data_network(*merged_view_, reach, words, [&](size_t from, size_t to) {
      for (size_t w = 0; w < words; ++w) arrive(to, w, reach[from * words + w]);
    });

    // An equivalent single-clock/single-through false path may already be
    // present (carried over from a source mode's own refinement); adding a
    // second copy would only differ in comment and break idempotence of
    // re-merging a merged mode.
    std::set<std::pair<uint32_t, uint32_t>> existing;  // (pin, clock)
    for (const sdc::Exception& ex : merged().exceptions()) {
      if (ex.kind != sdc::ExceptionKind::kFalsePath) continue;
      if (ex.from.clocks.size() != 1 || !ex.from.pins.empty()) continue;
      if (ex.throughs.size() != 1 || ex.throughs[0].pins.size() != 1 ||
          !ex.throughs[0].clocks.empty()) {
        continue;
      }
      if (!ex.to.clocks.empty() || !ex.to.pins.empty()) continue;
      existing.emplace(ex.throughs[0].pins[0].value(),
                       ex.from.clocks[0].value());
    }
    // Emit in (pin, clock) order: the merged deck's bytes depend on it.
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (uint64_t bits = frontier[i]; bits != 0; bits &= bits - 1) {
        const uint32_t pin = static_cast<uint32_t>(i / words);
        const uint32_t clock = static_cast<uint32_t>(
            (i % words) * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        if (existing.count({pin, clock})) continue;
        sdc::Exception ex;
        ex.kind = sdc::ExceptionKind::kFalsePath;
        ex.from.clocks.push_back(sdc::ClockId(clock));
        sdc::ExceptionPoint through;
        through.pins.push_back(PinId(pin));
        ex.throughs.push_back(std::move(through));
        ex.comment = "data refinement: clock not in data network of any mode";
        merged().exceptions().push_back(std::move(ex));
        ++result_.stats.data_clock_fps_added;
        result_.note("false path: clock " +
                     merged().clock(sdc::ClockId(clock)).name + " through " +
                     std::string(graph_.design().pin_name(PinId(pin))) +
                     " (reaches it in no individual mode)");
      }
    }
  }

  // --- shared propagation helpers --------------------------------------------

  PropagationOptions base_options() const {
    PropagationOptions opts;
    opts.compute_arrivals = false;
    opts.analyze_hold = analyze_hold_;
    return opts;
  }

  /// The members' relation tables under `opts` (merged clock space) and,
  /// as one more task beside their walks, the merged deck's table under
  /// `merged_ce`, written to `merged_table`.
  std::shared_ptr<const std::vector<RelationTable>> walk_members_and_merged(
      const PropagationOptions& opts, const CompiledExceptions& merged_ce,
      RelationTable& merged_table) {
    return ctx_.member_relations(opts, map(), [&] {
      Propagator mprop(*merged_view_, merged_ce);
      mprop.run(opts);
      merged_table = mprop.release_relations();
    });
  }

  void add_exception(sdc::Exception ex) {
    merged().exceptions().push_back(std::move(ex));
  }

  // --- two-sided key verdicts -------------------------------------------------

  struct SideVerdict {
    Verdict verdict = Verdict::kMatch;
    PathState fix;
    bool merged_untimed = false;
  };
  struct KeyVerdict {
    RelationKey key;
    SideVerdict side[2];
  };

  KeyVerdict classify_key(std::span<const RelationData* const> member_rows,
                          const RelationKey& key, const RelationData& merged_data,
                          const char* pass_name) {
    KeyVerdict kv;
    kv.key = key;
    mode_states_.resize(member_rows.size());
    for (int side = 0; side < num_sides(); ++side) {
      for (size_t m = 0; m < member_rows.size(); ++m) {
        mode_states_[m] =
            member_rows[m] ? &side_states(*member_rows[m], side) : nullptr;
      }
      const StateSet& ms = side_states(merged_data, side);
      SideVerdict& sv = kv.side[side];
      sv.merged_untimed = ms.all_untimed();
      sv.verdict = classify(mode_states_, ms, &sv.fix);
      if (sv.verdict == Verdict::kOptimism) {
        result_.note(std::string("OPTIMISM at ") + pass_name + " (" +
                     (side == kSetup ? "setup" : "hold") + ") on endpoint " +
                     std::string(graph_.design().pin_name(key.endpoint)));
      }
    }
    return kv;
  }

  GroupFix analyze_group(std::span<const KeyVerdict> group, int side) const {
    GroupFix g;
    for (const KeyVerdict& kv : group) {
      const SideVerdict& sv = kv.side[side];
      switch (sv.verdict) {
        case Verdict::kFixable:
          g.any_fix = true;
          if (!g.fix_set) {
            g.fix = sv.fix;
            g.fix_set = true;
          } else if (!(g.fix == sv.fix)) {
            g.killable_all = false;
          }
          break;
        case Verdict::kMatch:
          // A match whose merged states are untimed can absorb a false-path
          // fix without changing anything; a *timed* match must not.
          if (!sv.merged_untimed) g.killable_all = false;
          break;
        case Verdict::kAmbiguous:
          g.any_ambiguous = true;
          g.killable_all = false;
          break;
        case Verdict::kOptimism:
          g.killable_all = false;
          break;
      }
    }
    return g;
  }

  /// Emit group fixes for both sides via `builder` (which fills the
  /// anchors of a skeleton exception). Returns per-side "needs descent".
  std::pair<bool, bool> emit_group(
      std::span<const KeyVerdict> group,
      const std::function<void(sdc::Exception&)>& builder, size_t& counter) {
    const GroupFix s = analyze_group(group, kSetup);
    const GroupFix h =
        analyze_hold_ ? analyze_group(group, kHold) : GroupFix{};

    bool emitted_setup = false, emitted_hold = false;
    if (!analyze_hold_) {
      if (s.emit_ok()) {
        sdc::Exception ex = make_fix(s.fix, /*side_mask=*/3);
        builder(ex);
        add_exception(std::move(ex));
        ++counter;
        emitted_setup = true;
      }
    } else if (s.emit_ok() && h.emit_ok() && s.fix == h.fix) {
      // Both sides need the identical fix: unqualified (paper's CSTR form).
      sdc::Exception ex = make_fix(s.fix, /*side_mask=*/3);
      builder(ex);
      add_exception(std::move(ex));
      ++counter;
      emitted_setup = emitted_hold = true;
    } else {
      if (s.emit_ok()) {
        sdc::Exception ex = make_fix(s.fix, /*side_mask=*/1);
        builder(ex);
        add_exception(std::move(ex));
        ++counter;
        emitted_setup = true;
      }
      if (h.emit_ok()) {
        sdc::Exception ex = make_fix(h.fix, /*side_mask=*/2);
        builder(ex);
        add_exception(std::move(ex));
        ++counter;
        emitted_hold = true;
      }
    }
    const bool descend_setup = !emitted_setup && s.unresolved();
    const bool descend_hold =
        analyze_hold_ && !emitted_hold && h.unresolved();
    return {descend_setup, descend_hold};
  }

  /// The descent rule every group-level pass shares: emit the group's fix
  /// (anchored by `group_anchor`); failing that, split the group by launch
  /// clock and emit launch-qualified fixes (anchored by `launch_anchor`).
  /// A group is a run of verdicts in key order, so each launch clock's keys
  /// are a contiguous sub-run, in ascending clock order.
  /// Returns whether anything is still open for the next, finer pass.
  bool emit_or_split_by_launch(
      std::span<const KeyVerdict> group,
      const std::function<void(sdc::Exception&)>& group_anchor,
      const std::function<void(sdc::Exception&, sdc::ClockId)>& launch_anchor,
      size_t& counter) {
    const auto [descend_s, descend_h] = emit_group(group, group_anchor, counter);
    if (!descend_s && !descend_h) return false;

    bool still_open = false;
    for_each_run(group, same_launch, [&](std::span<const KeyVerdict> run) {
      const sdc::ClockId clock = run.front().key.launch;
      if (!clock.valid()) {
        const GroupFix gs = analyze_group(run, kSetup);
        const GroupFix gh =
            analyze_hold_ ? analyze_group(run, kHold) : GroupFix{};
        still_open |= gs.unresolved() || gh.unresolved();
        return;
      }
      const auto [ds, dh] = emit_group(
          run, [&](sdc::Exception& ex) { launch_anchor(ex, clock); }, counter);
      still_open |= ds || dh;
    });
    return still_open;
  }

  static bool same_endpoint(const KeyVerdict& a, const KeyVerdict& b) {
    return a.key.endpoint == b.key.endpoint;
  }
  static bool same_pair(const KeyVerdict& a, const KeyVerdict& b) {
    return same_endpoint(a, b) && a.key.startpoint == b.key.startpoint;
  }
  static bool same_launch(const KeyVerdict& a, const KeyVerdict& b) {
    return a.key.launch == b.key.launch;
  }

  /// Call fn(run) for each maximal run of consecutive verdicts that `same`
  /// holds between.
  template <typename Same, typename Fn>
  static void for_each_run(std::span<const KeyVerdict> verdicts, Same&& same,
                           Fn&& fn) {
    for (size_t first = 0; first < verdicts.size();) {
      size_t last = first + 1;
      while (last < verdicts.size() && same(verdicts[first], verdicts[last])) {
        ++last;
      }
      fn(verdicts.subspan(first, last - first));
      first = last;
    }
  }

  // --- pass 0: clock-pair-level comparison -------------------------------------
  //
  // Coarser than the paper's pass 1: if the merged mode times ANY path
  // between launch clock L and capture clock C on a side, but no individual
  // mode times anything at that clock pair, the whole pair is killable with
  // `set_false_path -from [get_clocks L] -to [get_clocks C]` — the only
  // SDC-expressible fix for capture-clock-specific mismatches (a -to
  // anchor cannot intersect a pin with a clock).
  //
  // Pairs are flat (launch * clocks + capture) masks over the merged
  // clocks; a member key whose clocks have no merged counterpart can match
  // no merged pair and is skipped.
  struct PairTiming {
    size_t num_clocks = 0;
    std::vector<uint8_t> merged_timed[2];
    std::vector<uint8_t> indiv_timed[2];

    explicit PairTiming(size_t clocks) : num_clocks(clocks) {
      for (int side = 0; side < 2; ++side) {
        merged_timed[side].assign(clocks * clocks, 0);
        indiv_timed[side].assign(clocks * clocks, 0);
      }
    }
    /// Index of the key's clock pair, or -1 when it has none.
    std::ptrdiff_t slot(const RelationKey& key) const {
      if (!key.launch.valid() || !key.capture.valid() ||
          key.launch.index() >= num_clocks ||
          key.capture.index() >= num_clocks) {
        return -1;
      }
      return static_cast<std::ptrdiff_t>(key.launch.index() * num_clocks +
                                         key.capture.index());
    }
    bool fixed(size_t pair, int side) const {
      return merged_timed[side][pair] && !indiv_timed[side][pair];
    }
  };

  // --- pass 1 -----------------------------------------------------------------

  void pass1() {
    const PropagationOptions opts = base_options();
    const CompiledExceptions merged_ce(graph_, merged());
    // The member walks (memoized for the equivalence check) and the merged
    // walk, side by side.
    RelationTable mrel;
    const auto indiv = walk_members_and_merged(opts, merged_ce, mrel);

    result_.stats.pass1_keys = mrel.size();

    // One sweep over the member tables and the merged table: pass-0 pair
    // timing, the per-key verdicts and the lost-relation scan.
    PairTiming pairs(merged().num_clocks());
    std::vector<KeyVerdict> verdicts;
    verdicts.reserve(mrel.size());
    join_relations(*indiv, mrel, [&](const RelationKey& key,
                                    const RelationData* mdata,
                                    std::span<const RelationData* const> rows) {
      const std::ptrdiff_t pair = pairs.slot(key);
      if (pair >= 0) {
        for (int side = 0; side < num_sides(); ++side) {
          if (mdata) pairs.merged_timed[side][pair] |=
                         side_states(*mdata, side).any_timed();
          for (const RelationData* row : rows) {
            if (row) pairs.indiv_timed[side][pair] |=
                         side_states(*row, side).any_timed();
          }
        }
      }
      if (mdata) {
        verdicts.push_back(classify_key(rows, key, *mdata, "pass 1"));
        return;
      }
      // Optimism in the other direction: individual keys with timed states
      // that the merged mode lost entirely.
      for (const RelationData* row : rows) {
        if (!row) continue;
        if (!row->states.any_timed() && !row->hold_states.any_timed()) continue;
        result_.note("OPTIMISM: merged mode lost relation at endpoint " +
                     std::string(graph_.design().pin_name(key.endpoint)));
      }
    });

    // Pass 0: emit clock-pair-level false paths in (launch, capture) order
    // (unqualified when both sides agree, -setup/-hold otherwise).
    const int hold_side = analyze_hold_ ? kHold : kSetup;
    for (size_t pair = 0; pair < pairs.merged_timed[kSetup].size(); ++pair) {
      const bool in_s = pairs.fixed(pair, kSetup);
      const bool in_h = pairs.fixed(pair, hold_side);
      if (!in_s && !in_h) continue;
      int mask = 3;
      if (analyze_hold_ && in_s != in_h) mask = in_s ? 1 : 2;
      const sdc::ClockId launch(pair / pairs.num_clocks);
      const sdc::ClockId capture(pair % pairs.num_clocks);
      sdc::Exception ex = make_fix(PathState::false_path(), mask);
      ex.from.clocks.push_back(launch);
      ex.to.clocks.push_back(capture);
      add_exception(std::move(ex));
      ++result_.stats.pass0_pair_fixed;
      result_.note("clock-pair false path: " + merged().clock(launch).name +
                   " -> " + merged().clock(capture).name);
    }

    // Keys whose whole clock pair was false-pathed in pass 0 are handled.
    for (KeyVerdict& kv : verdicts) {
      const std::ptrdiff_t pair = pairs.slot(kv.key);
      if (pair < 0) continue;
      for (int side = 0; side < num_sides(); ++side) {
        if (kv.side[side].verdict != Verdict::kMatch &&
            pairs.fixed(pair, side == kSetup ? kSetup : hold_side)) {
          kv.side[side].verdict = Verdict::kMatch;
          kv.side[side].merged_untimed = true;  // will be, once the pair FP applies
        }
      }
    }

    // Endpoint-level group (the paper's CSTR1: set_false_path -to rX/D),
    // then per (endpoint, launch) groups: -from <clock> -to <endpoint>; in
    // ascending endpoint order.
    for_each_run(verdicts, same_endpoint, [&](std::span<const KeyVerdict> group) {
      const PinId endpoint = group.front().key.endpoint;
      const bool open = emit_or_split_by_launch(
          group, [&](sdc::Exception& ex) { ex.to.pins.push_back(endpoint); },
          [&](sdc::Exception& ex, sdc::ClockId launch) {
            ex.from.clocks.push_back(launch);
            ex.to.pins.push_back(endpoint);
          },
          result_.stats.pass1_mismatch_fixed);
      if (open) pass2_endpoints_.push_back(endpoint);
    });
    result_.stats.pass1_ambiguous = pass2_endpoints_.size();
  }

  // --- pass 2 -----------------------------------------------------------------

  void pass2() {
    if (pass2_endpoints_.empty()) return;

    // Recompile the merged exceptions: pass-1 fixes changed them.
    const CompiledExceptions merged_ce(graph_, merged());

    const std::vector<uint8_t> cone =
        Propagator::fanin_cone(*merged_view_, pass2_endpoints_);

    PropagationOptions opts = base_options();
    opts.track_startpoints = true;
    opts.pin_filter = &cone;

    RelationTable mrel;
    const auto indiv = walk_members_and_merged(opts, merged_ce, mrel);

    // pass2_endpoints_ is ascending (pass 1 visits endpoints in order).
    std::vector<KeyVerdict> verdicts;
    join_relations(*indiv, mrel, [&](const RelationKey& key,
                                    const RelationData* mdata,
                                    std::span<const RelationData* const> rows) {
      if (!mdata || !std::binary_search(pass2_endpoints_.begin(),
                                        pass2_endpoints_.end(), key.endpoint)) {
        return;
      }
      ++result_.stats.pass2_keys;
      verdicts.push_back(classify_key(rows, key, *mdata, "pass 2"));
    });

    for_each_run(verdicts, same_pair, [&](std::span<const KeyVerdict> group) {
      const PinId endpoint = group.front().key.endpoint;
      const PinId startpoint = group.front().key.startpoint;
      // Pair-level group (paper's CSTR2: -from rA/CP -to rY/D), then
      // per-launch groups (the §3.1.10 form).
      const bool open = emit_or_split_by_launch(
          group,
          [&](sdc::Exception& ex) {
            ex.from.pins.push_back(startpoint);
            ex.to.pins.push_back(endpoint);
          },
          [&](sdc::Exception& ex, sdc::ClockId launch) {
            ex.from.clocks.push_back(launch);
            sdc::ExceptionPoint through;
            through.pins.push_back(startpoint);
            ex.throughs.push_back(std::move(through));
            ex.to.pins.push_back(endpoint);
          },
          result_.stats.pass2_mismatch_fixed);
      if (open) pass3_pairs_.push_back({startpoint, endpoint});
    });
    result_.stats.pass2_ambiguous = pass3_pairs_.size();
  }

  // --- pass 3 -----------------------------------------------------------------

  struct Pass3Pair {
    PinId startpoint;
    PinId endpoint;
  };

  /// Walk a concrete path (pin sequence) through an exception set.
  PathState path_state(const CompiledExceptions& ce, const Sdc& sdc,
                       const std::vector<PinId>& path, sdc::ClockId launch,
                       sdc::ClockId capture, bool setup_side) const {
    if (launch.valid() && capture.valid() &&
        (sdc.clocks_exclusive(launch, capture) ||
         sdc.clocks_async(launch, capture))) {
      return PathState::false_path();
    }
    std::vector<uint8_t> progress = ce.initial_progress(path.front(), launch);
    for (size_t i = 1; i < path.size(); ++i) {
      if (!progress.empty()) ce.advance(progress, path[i]);
    }
    return ce.resolve(progress, launch, path.back(), capture, setup_side);
  }

  /// All arc-enabled paths S -> E in the merged view, pruned to E's fan-in
  /// cone, capped at kMaxEnumeratedPaths.
  std::vector<std::vector<PinId>> enumerate_paths(const ModeGraph& view,
                                                  PinId start, PinId end,
                                                  bool* overflow) const {
    const std::vector<uint8_t> cone = Propagator::fanin_cone(view, {end});
    std::vector<std::vector<PinId>> paths;
    std::vector<PinId> current{start};

    struct Frame {
      PinId pin;
      size_t next = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    *overflow = false;

    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.pin == end && stack.size() > 1) {
        paths.push_back(current);
        if (paths.size() >= kMaxEnumeratedPaths) {
          *overflow = true;
          return paths;
        }
        stack.pop_back();
        current.pop_back();
        continue;
      }
      const auto& outs = graph_.fanout(frame.pin);
      bool has_launch = false;
      for (ArcId aid : outs) {
        if (graph_.arc(aid).kind == ArcKind::kLaunch) has_launch = true;
      }
      bool descended = false;
      while (frame.next < outs.size()) {
        const ArcId aid = outs[frame.next++];
        if (!view.arc_enabled(aid)) continue;
        const Arc& arc = graph_.arc(aid);
        if (has_launch && arc.kind != ArcKind::kLaunch) continue;
        if (!cone[arc.to.index()]) continue;
        current.push_back(arc.to);
        stack.push_back({arc.to, 0});
        descended = true;
        break;
      }
      if (!descended) {
        stack.pop_back();
        current.pop_back();
      }
    }
    return paths;
  }

  bool path_alive_in_mode(const ModeGraph& mg,
                          const std::vector<PinId>& path) const {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      bool hop = false;
      for (ArcId aid : graph_.fanout(path[i])) {
        if (graph_.arc(aid).to == path[i + 1] && mg.arc_enabled(aid)) {
          hop = true;
          break;
        }
      }
      if (!hop) return false;
    }
    return true;
  }

  /// Mode launches the path's startpoint with this clock?
  bool mode_launches(const ModeGraph& mg, PinId sp, sdc::ClockId clock) const {
    if (graph_.design().pin(sp).is_port()) {
      for (const sdc::PortDelay& pd : mg.sdc().port_delays()) {
        if (pd.is_input && pd.port_pin == sp && pd.clock == clock) return true;
      }
      return false;
    }
    return mg.clock_on(sp, clock);
  }

  bool mode_captures(const ModeGraph& mg, PinId ep, sdc::ClockId clock) const {
    for (const timing::ClockArrival& ca : mg.capture_clocks_at(ep)) {
      if (ca.clock == clock) return true;
    }
    return false;
  }

  /// Merged-mode clock pairs under which paths S->E can be timed.
  std::vector<std::pair<sdc::ClockId, sdc::ClockId>> merged_clock_pairs(
      PinId startpoint, PinId endpoint) {
    std::vector<sdc::ClockId> launches;
    if (graph_.design().pin(startpoint).is_port()) {
      for (const sdc::PortDelay& pd : merged().port_delays()) {
        if (pd.is_input && pd.port_pin == startpoint) {
          bool seen = false;
          for (sdc::ClockId c : launches) seen |= (c == pd.clock);
          if (!seen) launches.push_back(pd.clock);
        }
      }
    } else {
      for (const timing::ClockArrival& ca :
           merged_view_->clocks_on(startpoint)) {
        launches.push_back(ca.clock);
      }
    }
    std::vector<std::pair<sdc::ClockId, sdc::ClockId>> pairs;
    for (const timing::ClockArrival& cap :
         merged_view_->capture_clocks_at(endpoint)) {
      for (sdc::ClockId l : launches) pairs.emplace_back(l, cap.clock);
    }
    return pairs;
  }

  void pass3() {
    if (pass3_pairs_.empty()) return;
    result_.stats.pass3_pairs = pass3_pairs_.size();

    const CompiledExceptions merged_ce(graph_, merged());

    for (const Pass3Pair& pair : pass3_pairs_) {
      bool overflow = false;
      const auto paths = enumerate_paths(*merged_view_, pair.startpoint,
                                         pair.endpoint, &overflow);
      result_.stats.pass3_paths_enumerated += paths.size();
      if (overflow) {
        ++result_.stats.unresolved_pessimism;
        result_.note("pass 3: path enumeration overflow between " +
                     std::string(graph_.design().pin_name(pair.startpoint)) +
                     " and " +
                     std::string(graph_.design().pin_name(pair.endpoint)) +
                     " — keeping extra paths (pessimistic)");
        continue;
      }
      const auto cps = merged_clock_pairs(pair.startpoint, pair.endpoint);

      std::vector<PathVerdict> verdicts[2];
      verdicts[kSetup] = compute_path_verdicts(pair, paths, cps, merged_ce,
                                               kSetup);
      if (analyze_hold_) {
        verdicts[kHold] =
            compute_path_verdicts(pair, paths, cps, merged_ce, kHold);
      }

      // Phase 1 — paths bad under EVERY clock pair where merged times
      // them. Side-symmetric bad paths get ONE unqualified false path (the
      // paper's CSTR3 form); one-sided ones get -setup / -hold variants.
      const std::vector<uint8_t> fb_s = fully_bad_mask(verdicts[kSetup]);
      const std::vector<uint8_t> fb_h =
          analyze_hold_ ? fully_bad_mask(verdicts[kHold]) : fb_s;
      std::vector<uint8_t> both(paths.size()), only_s(paths.size()),
          only_h(paths.size());
      for (size_t pi = 0; pi < paths.size(); ++pi) {
        both[pi] = fb_s[pi] & fb_h[pi];
        only_s[pi] = fb_s[pi] & !both[pi];
        only_h[pi] = fb_h[pi] & !both[pi];
      }
      emit_fully_bad(pair, paths, both, /*side_mask=*/3);
      if (analyze_hold_) {
        emit_fully_bad(pair, paths, only_s, /*side_mask=*/1);
        emit_fully_bad(pair, paths, only_h, /*side_mask=*/2);
      }

      // Phase 2 — launch-clock-qualified fixes, per side.
      emit_launch_qualified(pair, paths, verdicts[kSetup], fb_s,
                            analyze_hold_ ? 1 : 3);
      if (analyze_hold_) {
        emit_launch_qualified(pair, paths, verdicts[kHold], fb_h, 2);
      }
    }
  }

  /// Per path: the clock pairs under which merged times it on this side,
  /// and the subset under which no individual mode times it ("bad").
  struct PathVerdict {
    std::vector<std::pair<sdc::ClockId, sdc::ClockId>> timed;
    std::vector<std::pair<sdc::ClockId, sdc::ClockId>> bad;
  };

  std::vector<PathVerdict> compute_path_verdicts(
      const Pass3Pair& pair, const std::vector<std::vector<PinId>>& paths,
      const std::vector<std::pair<sdc::ClockId, sdc::ClockId>>& cps,
      const CompiledExceptions& merged_ce, int side) {
    const bool setup_side = (side == kSetup);
    std::vector<PathVerdict> verdicts(paths.size());
    for (const auto& [launch, capture] : cps) {
      for (size_t pi = 0; pi < paths.size(); ++pi) {
        const auto& path = paths[pi];
        const PathState ms =
            path_state(merged_ce, merged(), path, launch, capture, setup_side);
        if (!ms.is_timed()) continue;  // merged already excludes it
        verdicts[pi].timed.emplace_back(launch, capture);
        bool indiv_timed = false;
        for (size_t m = 0; m < ctx_.modes.size() && !indiv_timed; ++m) {
          const sdc::ClockId lm =
              launch.valid() ? map().mode_clock_of(launch, m) : launch;
          const sdc::ClockId cm = map().mode_clock_of(capture, m);
          if ((launch.valid() && !lm.valid()) || !cm.valid()) continue;
          const ModeGraph& mg = ctx_.mode_graph(m);
          if (!mode_launches(mg, pair.startpoint, lm)) continue;
          if (!mode_captures(mg, pair.endpoint, cm)) continue;
          if (!path_alive_in_mode(mg, path)) continue;
          const PathState is =
              path_state(*(*mode_exceptions_)[m], *ctx_.modes[m], path, lm,
                         cm, setup_side);
          indiv_timed = is.is_timed();
        }
        if (!indiv_timed) verdicts[pi].bad.emplace_back(launch, capture);
      }
    }
    return verdicts;
  }

  static std::vector<uint8_t> fully_bad_mask(
      const std::vector<PathVerdict>& verdicts) {
    std::vector<uint8_t> mask(verdicts.size(), 0);
    for (size_t pi = 0; pi < verdicts.size(); ++pi) {
      const PathVerdict& v = verdicts[pi];
      mask[pi] = !v.timed.empty() && v.bad.size() == v.timed.size();
    }
    return mask;
  }

  /// Emit unqualified-from fixes for the paths in `group`; survivor pins
  /// (paths outside the group) must not be matched by the -throughs.
  void emit_fully_bad(const Pass3Pair& pair,
                      const std::vector<std::vector<PinId>>& paths,
                      const std::vector<uint8_t>& group, int side_mask) {
    std::unordered_set<uint32_t> keep_pins;
    bool any = false;
    for (size_t pi = 0; pi < paths.size(); ++pi) {
      if (group[pi]) {
        any = true;
      } else {
        for (PinId p : paths[pi]) keep_pins.insert(p.value());
      }
    }
    if (!any) return;
    std::vector<uint8_t> covered(paths.size(), 0);
    for (size_t pi = 0; pi < paths.size(); ++pi) {
      if (!group[pi] || covered[pi]) continue;
      sdc::Exception ex = path_fix_skeleton(pair, sdc::ClockId(), side_mask);
      attach_distinguisher(ex, paths, pi, keep_pins, group, covered);
      add_exception(std::move(ex));
      ++result_.stats.pass3_fps_added;
    }
  }

  /// Paths bad only under specific launch clocks: qualify with
  /// -from <clock> -through <startpoint> (the §3.1.10 form). Bad-ness must
  /// cover all captures timed under that launch; capture-specific residuals
  /// are inexpressible and stay pessimistic.
  void emit_launch_qualified(const Pass3Pair& pair,
                             const std::vector<std::vector<PinId>>& paths,
                             const std::vector<PathVerdict>& verdicts,
                             const std::vector<uint8_t>& fully_bad,
                             int side_mask) {
    std::set<uint32_t> launches;
    for (size_t pi = 0; pi < paths.size(); ++pi) {
      if (fully_bad[pi]) continue;
      for (const auto& [l, c] : verdicts[pi].bad) launches.insert(l.value());
    }
    for (uint32_t lv : launches) {
      const sdc::ClockId launch(lv);
      if (!launch.valid()) continue;
      std::vector<uint8_t> bad_for_launch(paths.size(), 0);
      std::unordered_set<uint32_t> keep_pins;
      for (size_t pi = 0; pi < paths.size(); ++pi) {
        if (fully_bad[pi]) continue;
        size_t timed_l = 0, bad_l = 0;
        for (const auto& [l, c] : verdicts[pi].timed) timed_l += (l == launch);
        for (const auto& [l, c] : verdicts[pi].bad) bad_l += (l == launch);
        if (timed_l > 0 && bad_l == timed_l) {
          bad_for_launch[pi] = 1;
        } else {
          for (PinId p : paths[pi]) keep_pins.insert(p.value());
          if (bad_l > 0) {
            // Bad for some captures only: SDC cannot express it.
            ++result_.stats.unresolved_pessimism;
          }
        }
      }
      std::vector<uint8_t> covered(paths.size(), 0);
      for (size_t pi = 0; pi < paths.size(); ++pi) {
        if (!bad_for_launch[pi] || covered[pi]) continue;
        sdc::Exception ex = path_fix_skeleton(pair, launch, side_mask);
        attach_distinguisher(ex, paths, pi, keep_pins, bad_for_launch, covered);
        add_exception(std::move(ex));
        ++result_.stats.pass3_fps_added;
      }
    }
  }

  sdc::Exception path_fix_skeleton(const Pass3Pair& pair, sdc::ClockId launch,
                                   int side_mask) const {
    sdc::Exception ex;
    ex.kind = sdc::ExceptionKind::kFalsePath;
    ex.comment = "mode-merge pass-3 refinement";
    if (side_mask == 1) ex.setup_hold = sdc::SetupHoldFlags::setup_only();
    if (side_mask == 2) ex.setup_hold = sdc::SetupHoldFlags::hold_only();
    if (launch.valid()) {
      ex.from.clocks.push_back(launch);
      sdc::ExceptionPoint sp_through;
      sp_through.pins.push_back(pair.startpoint);
      ex.throughs.push_back(std::move(sp_through));
    } else {
      ex.from.pins.push_back(pair.startpoint);
    }
    ex.to.pins.push_back(pair.endpoint);
    return ex;
  }

  /// Add a -through that isolates paths[index] from the keep set: a single
  /// distinguishing pin if one exists (covers every bad path containing
  /// it), else the exact ordered pin chain (unique in a DAG).
  void attach_distinguisher(sdc::Exception& ex,
                            const std::vector<std::vector<PinId>>& paths,
                            size_t index,
                            const std::unordered_set<uint32_t>& keep_pins,
                            const std::vector<uint8_t>& bad_mask,
                            std::vector<uint8_t>& covered) const {
    const std::vector<PinId>& path = paths[index];
    PinId distinct;
    for (size_t i = 1; i + 1 < path.size(); ++i) {
      if (!keep_pins.count(path[i].value())) {
        distinct = path[i];
        break;
      }
    }
    if (distinct.valid()) {
      // Paper's CSTR3: -from rC/CP -through inv3/A -to rZ/D.
      sdc::ExceptionPoint through;
      through.pins.push_back(distinct);
      ex.throughs.push_back(std::move(through));
      for (size_t pi = index; pi < paths.size(); ++pi) {
        if (!bad_mask[pi]) continue;
        for (PinId p : paths[pi]) {
          if (p == distinct) {
            covered[pi] = 1;
            break;
          }
        }
      }
    } else {
      for (size_t i = 1; i + 1 < path.size(); ++i) {
        sdc::ExceptionPoint through;
        through.pins.push_back(path[i]);
        ex.throughs.push_back(std::move(through));
      }
      covered[index] = 1;
    }
  }

  const RefineContext& ctx_;
  MergeResult& result_;
  const TimingGraph& graph_;
  const bool analyze_hold_;
  const std::shared_ptr<const ModeGraph> merged_view_;

  const std::vector<const CompiledExceptions*>* mode_exceptions_ = nullptr;
  std::vector<const StateSet*> mode_states_;  // classify_key's scratch
  std::vector<PinId> pass2_endpoints_;
  std::vector<Pass3Pair> pass3_pairs_;
};

}  // namespace

void refine_data_network(const RefineContext& ctx, MergeResult& result,
                         const MergeOptions& options) {
  DataRefiner(ctx, result, options).run();
}

}  // namespace mm::merge
