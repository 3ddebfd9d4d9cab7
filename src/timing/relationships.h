#pragma once
// Timing-relationship propagation — the engine behind both STA and the
// paper's 3-pass merged-mode refinement.
//
// A *tag* is (launch clock, exception progress, [startpoint]) plus an
// arrival window. Tags are seeded at active startpoints, flow forward
// through enabled arcs in topological order, advance exception progress at
// -through pins, and resolve to a PathState per (endpoint, capture clock).
// A walk keeps every pin's tags in one arena: each pin, in topological
// order, pulls its tags from its enabled fan-in arcs into one contiguous
// slice, final once written.
//
// The result is the paper's timing-relationship table: for every key
// (endpoint [, startpoint], launch clock, capture clock) the set of
// PathStates over all covered paths, plus worst setup slack when arrivals
// are enabled. Endpoints resolve in ascending pin order, each endpoint's
// rows sorted as they are written, so the table is born in key order.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/path_state.h"

namespace mm::timing {

/// Interns exception-progress vectors; id 0 is always the all-inactive or
/// empty vector.
class ProgressTable {
 public:
  explicit ProgressTable(uint32_t width);

  uint32_t intern(const std::vector<uint8_t>& v);
  const std::vector<uint8_t>& get(uint32_t id) const { return table_[id]; }
  size_t size() const { return table_.size(); }

 private:
  struct VecHash {
    size_t operator()(const std::vector<uint8_t>& v) const noexcept;
  };
  std::deque<std::vector<uint8_t>> table_;
  std::unordered_map<std::vector<uint8_t>, uint32_t, VecHash> ids_;
};

struct Tag {
  ClockId launch;           // invalid = unclocked (plain input delay)
  uint32_t progress = 0;    // ProgressTable id
  PinId startpoint;         // tracked only when options.track_startpoints
  float amin = 0.0f;        // earliest arrival at this pin
  float amax = 0.0f;        // latest arrival at this pin
};

struct RelationKey {
  PinId endpoint;
  PinId startpoint;  // invalid in endpoint-level (pass 1) analyses
  ClockId launch;
  ClockId capture;

  friend bool operator==(const RelationKey&, const RelationKey&) = default;
  /// Table order: endpoint, startpoint, launch, capture (an invalid id,
  /// the largest value, sorts last).
  friend bool operator<(const RelationKey& a, const RelationKey& b) {
    if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
    if (a.startpoint != b.startpoint) return a.startpoint < b.startpoint;
    if (a.launch != b.launch) return a.launch < b.launch;
    return a.capture < b.capture;
  }
};

/// Sorted, deduplicated set of PathStates (the "Individual mode state" /
/// "Merged mode state" columns of the paper's Tables 2-4). A key almost
/// always holds one state, so up to two live inline; a third moves the
/// whole set to an exact-size heap array.
class StateSet {
 public:
  StateSet() = default;
  StateSet(const StateSet& o) { *this = o; }
  StateSet(StateSet&& o) noexcept { *this = std::move(o); }
  StateSet& operator=(const StateSet& o);
  /// Leaves `o` empty.
  StateSet& operator=(StateSet&& o) noexcept;
  ~StateSet() = default;

  void insert(const PathState& s);
  bool contains(const PathState& s) const;
  bool contains_kind(StateKind k) const;
  /// Only false-path / disabled states (nothing timed).
  bool all_untimed() const;
  /// Any timed state (valid / MCP / min / max).
  bool any_timed() const;
  bool singleton() const { return size_ == 1; }
  void merge(const StateSet& o);
  std::string str() const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const PathState* begin() const { return data(); }
  const PathState* end() const { return data() + size_; }
  const PathState& operator[](size_t i) const { return data()[i]; }

  friend bool operator==(const StateSet& a, const StateSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr uint32_t kInline = 2;
  const PathState* data() const {
    return size_ <= kInline ? inline_.data() : spill_.get();
  }

  uint32_t size_ = 0;
  std::array<PathState, kInline> inline_{};
  std::unique_ptr<PathState[]> spill_;  // size_ states, once size_ > kInline
};

struct RelationData {
  StateSet states;              // setup-side states
  StateSet hold_states;         // hold-side states (when analyze_hold)
  float worst_slack = 1e30f;    // setup slack over timed paths (if arrivals on)
  float worst_hold_slack = 1e30f;
  float worst_arrival = -1e30f;

  /// Fold another row of the same key in: union the states, keep the
  /// worst slacks and arrival.
  void merge(const RelationData& o);
};

struct RelationRow {
  RelationKey key;
  RelationData data;
};

/// The timing-relationship table: one row per key, sorted by key, so a
/// lookup is a binary search and two tables compare in one merge-join
/// sweep.
class RelationTable {
 public:
  using const_iterator = std::vector<RelationRow>::const_iterator;

  const_iterator begin() const { return rows_.begin(); }
  const_iterator end() const { return rows_.end(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const RelationRow& operator[](size_t i) const { return rows_[i]; }

  /// The row for `key`, or nullptr when the table has none.
  const RelationData* find(const RelationKey& key) const;
  /// The row for `key`; throws std::out_of_range when absent.
  const RelationData& at(const RelationKey& key) const;

  void reserve(size_t rows) { rows_.reserve(rows); }
  /// Append a row for `key` (building side). Rows appended since `first`
  /// stay unsorted until fold_since(first); every such key must sort
  /// after all rows before `first`.
  RelationData& append(const RelationKey& key);
  /// Sort rows [first, size()) and fold rows with equal keys into one.
  void fold_since(size_t first);

  /// Rename every row's launch and capture clock through `rename`, then
  /// re-sort and fold each (endpoint, startpoint) run: two clocks can
  /// rename to one.
  template <typename Rename>
  void rename_clocks(Rename&& rename) {
    for (RelationRow& row : rows_) {
      row.key.launch = rename(row.key.launch);
      row.key.capture = rename(row.key.capture);
    }
    size_t out = 0;
    for (size_t first = 0; first < rows_.size();) {
      size_t last = first + 1;
      while (last < rows_.size() &&
             rows_[last].key.endpoint == rows_[first].key.endpoint &&
             rows_[last].key.startpoint == rows_[first].key.startpoint) {
        ++last;
      }
      out = fold(first, last, out);
      first = last;
    }
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(out), rows_.end());
  }

 private:
  /// Sort rows [first, last), fold equal keys, and move the result down
  /// to start at `out` (<= first). Returns the new end of the output.
  size_t fold(size_t first, size_t last, size_t out);

  std::vector<RelationRow> rows_;
};

/// A RelationTable kept for later reuse, at 40 bytes a row instead of 96.
/// A row whose setup and hold sets hold at most one state each, and whose
/// slack and arrival fields are unset (every walk without arrivals), keeps
/// only its key and those states; any other row keeps its full data on the
/// side. unpack() returns the table this was made from, row for row.
class PackedRelationTable {
 public:
  explicit PackedRelationTable(const RelationTable& table);

  RelationTable unpack() const;
  size_t size() const { return rows_.size(); }

 private:
  static constexpr uint32_t kNarrow = UINT32_MAX;
  struct Row {
    RelationKey key;
    PathState setup;
    PathState hold;
    uint32_t full = kNarrow;  // index into full_, or kNarrow
    uint8_t num_setup = 0;    // narrow rows: size of each state set (0/1)
    uint8_t num_hold = 0;
  };

  std::vector<Row> rows_;
  std::vector<RelationData> full_;
};

struct PropagationOptions {
  bool track_startpoints = false;
  bool compute_arrivals = true;
  /// Restrict propagation to pins with filter[pin] != 0 (e.g. a fan-in cone).
  const std::vector<uint8_t>* pin_filter = nullptr;
  /// Per-arc delays from a delay-calculation run (timing/delay_calc.h).
  /// nullptr falls back to the zero-slew closed-form model.
  const std::vector<double>* arc_delays = nullptr;
  /// Early (min) per-arc delays for the hold side's amin accumulation;
  /// nullptr uses `arc_delays` (no early/late split).
  const std::vector<double>* arc_delays_min = nullptr;
  /// Also resolve hold-side states (and hold slacks when arrivals are on).
  bool analyze_hold = false;
};

class Propagator {
 public:
  Propagator(const ModeGraph& mode, const CompiledExceptions& exceptions);

  void run(const PropagationOptions& options = {});

  const RelationTable& relations() const { return relations_; }
  /// Move the relation table out (the propagator is spent afterwards).
  RelationTable release_relations() { return std::move(relations_); }
  /// Tags on `pin` after run().
  std::span<const Tag> tags(PinId pin) const { return slices_[pin.index()]; }
  const ProgressTable& progress_table() const { return progress_; }

  /// Worst setup slack per endpoint over all keys (endpoint -> slack);
  /// endpoints with no timed relation are absent.
  std::unordered_map<uint32_t, float> worst_slack_by_endpoint() const;
  /// Worst hold slack per endpoint (requires analyze_hold).
  std::unordered_map<uint32_t, float> worst_hold_slack_by_endpoint() const;

  /// Compute the fan-in cone (as a pin mask) of the given endpoints over
  /// enabled arcs — used to restrict pass-2 propagation.
  static std::vector<uint8_t> fanin_cone(const ModeGraph& mode,
                                         const std::vector<PinId>& from_pins);

 private:
  /// The tags of one walk, in fixed-size blocks. Each pin's tags are one
  /// contiguous slice of one block, written in one go (begin_slice, add
  /// per tag, end_slice); a block is never grown past its capacity, so a
  /// written slice never moves and the arena costs its tags plus at most
  /// one partly filled block, with no doubling copy.
  class TagArena {
   public:
    void clear();
    void begin_slice();
    /// Add `tag` to the open slice, widening the arrival window of a tag
    /// already there with the same (launch, progress, startpoint).
    void add(const Tag& tag);
    std::span<const Tag> end_slice();

   private:
    static constexpr size_t kBlockTags = 8192;
    std::vector<std::vector<Tag>> blocks_;
    size_t first_ = 0;  // the open slice's start in blocks_.back()
  };

  /// (progress id, pin) -> progress id after the pin's -through sets, in
  /// an open-addressed table, so a tag crossing a -through pin costs one
  /// probe instead of a progress-vector copy.
  class AdvanceMemo {
   public:
    static constexpr uint32_t kMiss = UINT32_MAX;
    uint32_t find(uint32_t progress, PinId pin) const;
    void insert(uint32_t progress, PinId pin, uint32_t next);

   private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};
    static uint64_t key_of(uint32_t progress, PinId pin) {
      return (uint64_t{progress} << 32) | pin.value();
    }
    size_t slot_of(uint64_t key) const;
    std::vector<uint64_t> keys_;
    std::vector<uint32_t> values_;
    size_t size_ = 0;
  };

  void seed(const PropagationOptions& options);
  void seed_startpoint(PinId sp, const PropagationOptions& options);
  void pull_tags(PinId pin, const PropagationOptions& options);
  uint32_t advance(uint32_t progress, PinId pin);
  void resolve_endpoint(PinId endpoint, const PropagationOptions& options);
  double setup_relation(ClockId launch, ClockId capture, double mcp_mult) const;
  double hold_relation(ClockId launch, ClockId capture, double mcp_shift) const;

  const ModeGraph* mode_;
  const CompiledExceptions* exceptions_;
  ProgressTable progress_;
  TagArena arena_;
  /// Per pin: its seed tags until the pin's turn in topological order,
  /// its final tags after.
  std::vector<std::span<const Tag>> slices_;
  size_t num_tags_ = 0;
  std::vector<ArcId> fanin_scratch_;
  std::vector<uint8_t> progress_scratch_;
  AdvanceMemo advance_memo_;
  RelationTable relations_;
};

}  // namespace mm::timing
