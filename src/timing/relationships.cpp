#include "timing/relationships.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "util/logger.h"

namespace mm::timing {

// --- ProgressTable ---------------------------------------------------------

size_t ProgressTable::VecHash::operator()(
    const std::vector<uint8_t>& v) const noexcept {
  size_t h = 1469598103934665603ull;
  for (uint8_t b : v) h = (h ^ b) * 1099511628211ull;
  return h;
}

ProgressTable::ProgressTable(uint32_t width) {
  std::vector<uint8_t> empty(width, kExcInactive);
  table_.push_back(empty);
  ids_.emplace(std::move(empty), 0u);
}

uint32_t ProgressTable::intern(const std::vector<uint8_t>& v) {
  auto it = ids_.find(v);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(table_.size());
  table_.push_back(v);
  ids_.emplace(table_.back(), id);
  return id;
}

// --- StateSet ---------------------------------------------------------------

StateSet& StateSet::operator=(const StateSet& o) {
  if (this == &o) return *this;
  size_ = o.size_;
  inline_ = o.inline_;
  spill_.reset();
  if (size_ > kInline) {
    spill_ = std::make_unique<PathState[]>(size_);
    std::copy(o.begin(), o.end(), spill_.get());
  }
  return *this;
}

StateSet& StateSet::operator=(StateSet&& o) noexcept {
  if (this == &o) return *this;
  size_ = std::exchange(o.size_, 0);
  inline_ = o.inline_;
  spill_ = std::move(o.spill_);
  return *this;
}

void StateSet::insert(const PathState& s) {
  const PathState* pos = std::lower_bound(begin(), end(), s);
  if (pos != end() && *pos == s) return;
  const size_t at = static_cast<size_t>(pos - begin());
  if (size_ < kInline) {
    std::copy_backward(inline_.begin() + at, inline_.begin() + size_,
                       inline_.begin() + size_ + 1);
    inline_[at] = s;
  } else {
    // Past the inline capacity: one exact-size array per insert (a third
    // distinct state at one key is rare).
    auto grown = std::make_unique<PathState[]>(size_ + 1);
    std::copy(begin(), begin() + at, grown.get());
    grown[at] = s;
    std::copy(begin() + at, end(), grown.get() + at + 1);
    spill_ = std::move(grown);
  }
  ++size_;
}

bool StateSet::contains(const PathState& s) const {
  return std::binary_search(begin(), end(), s);
}

bool StateSet::contains_kind(StateKind k) const {
  for (const PathState& s : *this)
    if (s.kind == k) return true;
  return false;
}

bool StateSet::all_untimed() const {
  for (const PathState& s : *this)
    if (s.is_timed()) return false;
  return true;
}

bool StateSet::any_timed() const {
  for (const PathState& s : *this)
    if (s.is_timed()) return true;
  return false;
}

void StateSet::merge(const StateSet& o) {
  for (const PathState& s : o) insert(s);
}

std::string StateSet::str() const {
  std::string out = "{";
  for (size_t i = 0; i < size_; ++i) {
    if (i) out += ", ";
    out += (*this)[i].str();
  }
  return out + "}";
}

// --- RelationTable ----------------------------------------------------------

void RelationData::merge(const RelationData& o) {
  states.merge(o.states);
  hold_states.merge(o.hold_states);
  worst_slack = std::min(worst_slack, o.worst_slack);
  worst_hold_slack = std::min(worst_hold_slack, o.worst_hold_slack);
  worst_arrival = std::max(worst_arrival, o.worst_arrival);
}

PackedRelationTable::PackedRelationTable(const RelationTable& table) {
  const RelationData unset;
  rows_.reserve(table.size());
  for (const RelationRow& r : table) {
    const RelationData& d = r.data;
    Row row;
    row.key = r.key;
    if (d.states.size() <= 1 && d.hold_states.size() <= 1 &&
        d.worst_slack == unset.worst_slack &&
        d.worst_hold_slack == unset.worst_hold_slack &&
        d.worst_arrival == unset.worst_arrival) {
      row.num_setup = static_cast<uint8_t>(d.states.size());
      row.num_hold = static_cast<uint8_t>(d.hold_states.size());
      if (row.num_setup) row.setup = d.states[0];
      if (row.num_hold) row.hold = d.hold_states[0];
    } else {
      row.full = static_cast<uint32_t>(full_.size());
      full_.push_back(d);
    }
    rows_.push_back(row);
  }
}

RelationTable PackedRelationTable::unpack() const {
  RelationTable out;
  out.reserve(rows_.size());
  // Rows are already in key order with unique keys: nothing to fold.
  for (const Row& row : rows_) {
    RelationData& d = out.append(row.key);
    if (row.full != kNarrow) {
      d = full_[row.full];
      continue;
    }
    if (row.num_setup) d.states.insert(row.setup);
    if (row.num_hold) d.hold_states.insert(row.hold);
  }
  return out;
}

const RelationData* RelationTable::find(const RelationKey& key) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), key,
      [](const RelationRow& row, const RelationKey& k) { return row.key < k; });
  return it != rows_.end() && it->key == key ? &it->data : nullptr;
}

const RelationData& RelationTable::at(const RelationKey& key) const {
  const RelationData* data = find(key);
  if (!data) throw std::out_of_range("RelationTable::at: no such key");
  return *data;
}

RelationData& RelationTable::append(const RelationKey& key) {
  rows_.push_back({key, {}});
  return rows_.back().data;
}

void RelationTable::fold_since(size_t first) {
  const size_t out = fold(first, rows_.size(), first);
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(out), rows_.end());
}

size_t RelationTable::fold(size_t first, size_t last, size_t out) {
  const auto b = rows_.begin() + static_cast<std::ptrdiff_t>(first);
  const auto e = rows_.begin() + static_cast<std::ptrdiff_t>(last);
  std::sort(b, e, [](const RelationRow& x, const RelationRow& y) {
    return x.key < y.key;
  });
  const size_t run_start = out;
  for (size_t i = first; i < last; ++i) {
    if (out > run_start && rows_[out - 1].key == rows_[i].key) {
      rows_[out - 1].data.merge(rows_[i].data);
    } else {
      if (out != i) rows_[out] = std::move(rows_[i]);
      ++out;
    }
  }
  return out;
}

// --- Propagator -------------------------------------------------------------

namespace {

/// splitmix64 finalizer.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void Propagator::TagArena::clear() {
  blocks_.clear();
  first_ = 0;
}

void Propagator::TagArena::begin_slice() {
  if (blocks_.empty()) {
    blocks_.emplace_back().reserve(kBlockTags);
  }
  first_ = blocks_.back().size();
}

void Propagator::TagArena::add(const Tag& tag) {
  std::vector<Tag>& block = blocks_.back();
  for (size_t i = first_; i < block.size(); ++i) {
    Tag& t = block[i];
    if (t.launch == tag.launch && t.progress == tag.progress &&
        t.startpoint == tag.startpoint) {
      t.amin = std::min(t.amin, tag.amin);
      t.amax = std::max(t.amax, tag.amax);
      return;
    }
  }
  if (block.size() == block.capacity()) {
    // Full: move the open slice to a fresh block (large enough for a
    // slice bigger than a block to keep doubling).
    const size_t open = block.size() - first_;
    std::vector<Tag> next;
    next.reserve(std::max(kBlockTags, 2 * open));
    next.assign(block.begin() + static_cast<std::ptrdiff_t>(first_),
                block.end());
    block.resize(first_);
    blocks_.push_back(std::move(next));
    first_ = 0;
  }
  blocks_.back().push_back(tag);
}

std::span<const Tag> Propagator::TagArena::end_slice() {
  const std::vector<Tag>& block = blocks_.back();
  return {block.data() + first_, block.size() - first_};
}

size_t Propagator::AdvanceMemo::slot_of(uint64_t key) const {
  const size_t mask = keys_.size() - 1;
  size_t slot = static_cast<size_t>(mix64(key)) & mask;
  while (keys_[slot] != kEmpty && keys_[slot] != key) slot = (slot + 1) & mask;
  return slot;
}

uint32_t Propagator::AdvanceMemo::find(uint32_t progress, PinId pin) const {
  if (keys_.empty()) return kMiss;
  const uint64_t key = key_of(progress, pin);
  const size_t slot = slot_of(key);
  return keys_[slot] == key ? values_[slot] : kMiss;
}

void Propagator::AdvanceMemo::insert(uint32_t progress, PinId pin,
                                     uint32_t next) {
  if (2 * (size_ + 1) > keys_.size()) {
    // Grow (a power of two, at most half full) and re-place every entry.
    const size_t capacity = std::max<size_t>(64, 2 * keys_.size());
    const std::vector<uint64_t> old_keys =
        std::exchange(keys_, std::vector<uint64_t>(capacity, kEmpty));
    const std::vector<uint32_t> old_values =
        std::exchange(values_, std::vector<uint32_t>(capacity));
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      const size_t slot = slot_of(old_keys[i]);
      keys_[slot] = old_keys[i];
      values_[slot] = old_values[i];
    }
  }
  const uint64_t key = key_of(progress, pin);
  const size_t slot = slot_of(key);
  if (keys_[slot] == kEmpty) ++size_;
  keys_[slot] = key;
  values_[slot] = next;
}

Propagator::Propagator(const ModeGraph& mode,
                       const CompiledExceptions& exceptions)
    : mode_(&mode),
      exceptions_(&exceptions),
      progress_(exceptions.num_tracked()),
      slices_(mode.graph().num_nodes()) {}

void Propagator::run(const PropagationOptions& options) {
  MM_SPAN_HOT("timing/relationship_propagation");
  const TimingGraph& graph = mode_->graph();
  arena_.clear();
  slices_.assign(graph.num_nodes(), {});
  num_tags_ = 0;
  relations_ = RelationTable();

  seed(options);

  // Forward propagation in topological order: a pin's fan-in sources are
  // final before its turn, so each pin's slice is written once.
  for (PinId pin : graph.topo_order()) {
    if (options.pin_filter && !(*options.pin_filter)[pin.index()]) continue;
    pull_tags(pin, options);
  }

  // Resolve relations at endpoints, in ascending pin order. A filtered-out
  // endpoint has no tags. Each (tag, capture clock) writes at most one
  // row, so the table is sized once, up front.
  std::vector<PinId> endpoints = mode_->active_endpoints();
  std::sort(endpoints.begin(), endpoints.end());
  size_t max_rows = 0;
  for (PinId ep : endpoints) {
    max_rows += tags(ep).size() * mode_->capture_clocks_at(ep).size();
  }
  relations_.reserve(max_rows);
  for (PinId ep : endpoints) resolve_endpoint(ep, options);

  MM_COUNT("timing/tags", num_tags_);
  MM_COUNT("timing/relations", relations_.size());
  MM_COUNT("timing/propagations", 1);
}

void Propagator::seed(const PropagationOptions& options) {
  for (PinId sp : mode_->active_startpoints()) {
    if (options.pin_filter && !(*options.pin_filter)[sp.index()]) continue;
    arena_.begin_slice();
    seed_startpoint(sp, options);
    slices_[sp.index()] = arena_.end_slice();
  }
}

void Propagator::seed_startpoint(PinId sp, const PropagationOptions& options) {
  const netlist::Design& d = mode_->graph().design();
  const PinId tracked_sp = options.track_startpoints ? sp : PinId();
  const Sdc& sdc = mode_->sdc();

  if (d.pin(sp).is_port()) {
    // Input port: one tag per set_input_delay entry.
    for (const sdc::PortDelay& pd : sdc.port_delays()) {
      if (!pd.is_input || pd.port_pin != sp) continue;
      double edge = 0.0;
      if (pd.clock.valid()) {
        const sdc::Clock& c = sdc.clock(pd.clock);
        edge = pd.clock_fall && c.waveform.size() > 1 ? c.waveform[1]
                                                      : c.waveform.empty() ? 0.0 : c.waveform[0];
      }
      const float arrival = static_cast<float>(edge + pd.value);
      exceptions_->initial_progress(sp, pd.clock, progress_scratch_);
      const uint32_t prog = progress_.intern(progress_scratch_);
      arena_.add({pd.clock, prog, tracked_sp, arrival, arrival});
    }
    return;
  }

  // Register clock pin: one tag per arriving clock.
  for (const ClockArrival& ca : mode_->clocks_on(sp)) {
    const sdc::Clock& clock = sdc.clock(ca.clock);
    const double latency =
        mode_->source_latency(ca.clock) +
        (clock.propagated ? ca.latency : mode_->ideal_network_latency(ca.clock));
    const double edge = clock.waveform.empty() ? 0.0 : clock.waveform[0];
    const float arrival = static_cast<float>(latency + edge);
    exceptions_->initial_progress(sp, ca.clock, progress_scratch_);
    const uint32_t prog = progress_.intern(progress_scratch_);
    arena_.add({ca.clock, prog, tracked_sp, arrival, arrival});
  }
}

void Propagator::pull_tags(PinId pin, const PropagationOptions& options) {
  const TimingGraph& graph = mode_->graph();
  arena_.begin_slice();
  for (const Tag& seed : slices_[pin.index()]) arena_.add(seed);

  // Enabled fan-in arcs that carry tags. Register CP pins carry tags only
  // into their launch arcs (the clock becomes data at Q). Sources are taken
  // in topological order, so a pin's tags keep the order a forward push
  // from each source in turn would give them.
  fanin_scratch_.clear();
  for (ArcId aid : graph.fanin(pin)) {
    if (!mode_->arc_enabled(aid)) continue;
    const Arc& arc = graph.arc(aid);
    if (slices_[arc.from.index()].empty()) continue;
    if (graph.has_launch_fanout(arc.from) && arc.kind != ArcKind::kLaunch) {
      continue;
    }
    fanin_scratch_.push_back(aid);
  }
  if (fanin_scratch_.size() > 1) {
    std::sort(fanin_scratch_.begin(), fanin_scratch_.end(),
              [&](ArcId a, ArcId b) {
                const uint32_t pa = graph.topo_position(graph.arc(a).from);
                const uint32_t pb = graph.topo_position(graph.arc(b).from);
                return pa != pb ? pa < pb : a < b;
              });
  }

  for (ArcId aid : fanin_scratch_) {
    const Arc& arc = graph.arc(aid);
    const double delay =
        options.arc_delays
            ? (*options.arc_delays)[aid.index()]
            : (arc.kind == ArcKind::kNet
                   ? arc.intrinsic
                   : arc.intrinsic + arc.resistance * graph.load_on(arc.to));
    const double delay_min = options.arc_delays_min
                                 ? (*options.arc_delays_min)[aid.index()]
                                 : delay;
    for (Tag tag : slices_[arc.from.index()]) {
      tag.progress = advance(tag.progress, pin);
      tag.amin += static_cast<float>(delay_min);
      tag.amax += static_cast<float>(delay);
      arena_.add(tag);
    }
  }
  slices_[pin.index()] = arena_.end_slice();
  num_tags_ += slices_[pin.index()].size();
}

uint32_t Propagator::advance(uint32_t progress, PinId pin) {
  if (exceptions_->num_tracked() == 0 || exceptions_->throughs_at(pin).empty()) {
    return progress;
  }
  const uint32_t memo = advance_memo_.find(progress, pin);
  if (memo != AdvanceMemo::kMiss) return memo;
  const std::vector<uint8_t>& from = progress_.get(progress);
  progress_scratch_.assign(from.begin(), from.end());
  const uint32_t next = exceptions_->advance(progress_scratch_, pin)
                            ? progress_.intern(progress_scratch_)
                            : progress;
  advance_memo_.insert(progress, pin, next);
  return next;
}

double Propagator::hold_relation(ClockId launch, ClockId capture,
                                 double mcp_shift) const {
  // The hold check references the capture edge closest to (at or before)
  // the launch edge — zero for identically-aligned clocks. A hold
  // multicycle (set_multicycle_path -hold N) relaxes the check by N capture
  // periods (moves it N edges earlier).
  const Sdc& sdc = mode_->sdc();
  constexpr double kEps = 1e-9;
  const sdc::Clock& cap = sdc.clock(capture);
  const double cap_edge = cap.waveform.empty() ? 0.0 : cap.waveform[0];
  double launch_edge = 0.0;
  if (launch.valid()) {
    const sdc::Clock& l = sdc.clock(launch);
    launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
  }
  const double k = std::floor((launch_edge - cap_edge) / cap.period + kEps);
  double tc = cap_edge + k * cap.period;
  if (mcp_shift > 0.0) tc -= mcp_shift * cap.period;
  return tc - launch_edge;  // <= 0: capture-edge offset from launch edge
}

double Propagator::setup_relation(ClockId launch, ClockId capture,
                                  double mcp_mult) const {
  const Sdc& sdc = mode_->sdc();
  constexpr double kEps = 1e-9;
  const sdc::Clock& cap = sdc.clock(capture);
  const double cap_edge = cap.waveform.empty() ? 0.0 : cap.waveform[0];
  double launch_edge = 0.0;
  if (launch.valid()) {
    const sdc::Clock& l = sdc.clock(launch);
    launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
  }
  // Smallest capture rise edge strictly after the launch edge
  // (single-edge approximation of the common-period expansion).
  double k = std::floor((launch_edge - cap_edge) / cap.period + kEps) + 1.0;
  if (k < 0) k = std::ceil(-(cap_edge - launch_edge) / cap.period);
  double tc = cap_edge + k * cap.period;
  if (tc <= launch_edge + kEps) tc += cap.period;
  if (mcp_mult > 1.0) tc += (mcp_mult - 1.0) * cap.period;
  return tc - launch_edge;  // distance from launch edge
}

void Propagator::resolve_endpoint(PinId endpoint,
                                  const PropagationOptions& options) {
  const netlist::Design& d = mode_->graph().design();
  const Sdc& sdc = mode_->sdc();
  const std::span<const Tag> pin_tags = tags(endpoint);
  if (pin_tags.empty()) return;
  const size_t first_row = relations_.size();

  const bool is_port = d.pin(endpoint).is_port();

  // Setup/hold times at this endpoint (library check) — ports use output
  // delay as the "check" instead.
  double setup_time = 0.0;
  double hold_time = 0.0;
  if (!is_port) {
    for (uint32_t ci : mode_->graph().checks_at(endpoint)) {
      setup_time = std::max(setup_time, mode_->graph().checks()[ci].setup);
      hold_time = std::max(hold_time, mode_->graph().checks()[ci].hold);
    }
  }

  for (const ClockArrival& cap : mode_->capture_clocks_at(endpoint)) {
    const sdc::Clock& cap_clock = sdc.clock(cap.clock);
    const double cap_lat =
        mode_->source_latency(cap.clock) +
        (cap_clock.propagated ? cap.latency
                              : mode_->ideal_network_latency(cap.clock));
    const double unc = mode_->uncertainty(cap.clock);

    double output_delay = 0.0;
    if (is_port) {
      for (const sdc::PortDelay& pd : sdc.port_delays()) {
        if (!pd.is_input && pd.port_pin == endpoint && pd.clock == cap.clock &&
            pd.minmax.max) {
          output_delay = std::max(output_delay, pd.value);
        }
      }
    }

    for (const Tag& tag : pin_tags) {
      PathState state;
      const bool exclusive =
          tag.launch.valid() &&
          (sdc.clocks_exclusive(tag.launch, cap.clock) ||
           sdc.clocks_async(tag.launch, cap.clock));
      if (exclusive) {
        state = PathState::false_path();
      } else {
        state = exceptions_->resolve(progress_.get(tag.progress), tag.launch,
                                     endpoint, cap.clock, /*setup_side=*/true);
      }

      RelationKey key;
      key.endpoint = endpoint;
      key.startpoint = tag.startpoint;
      key.launch = tag.launch;
      key.capture = cap.clock;
      RelationData& data = relations_.append(key);
      data.states.insert(state);

      if (options.analyze_hold) {
        PathState hold_state;
        if (exclusive) {
          hold_state = PathState::false_path();
        } else {
          hold_state =
              exceptions_->resolve(progress_.get(tag.progress), tag.launch,
                                   endpoint, cap.clock, /*setup_side=*/false);
        }
        data.hold_states.insert(hold_state);
        if (options.compute_arrivals && hold_state.is_timed()) {
          const double hold_unc = mode_->hold_uncertainty(cap.clock);
          double slack;
          if (hold_state.kind == StateKind::kMinDelay) {
            slack = tag.amin - hold_state.value;
          } else {
            const double shift =
                hold_state.kind == StateKind::kMcp ? hold_state.value : 0.0;
            const double tc = hold_relation(tag.launch, cap.clock, shift);
            double launch_edge = 0.0;
            if (tag.launch.valid()) {
              const sdc::Clock& l = sdc.clock(tag.launch);
              launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
            }
            const double required =
                launch_edge + tc + cap_lat + hold_unc + hold_time;
            slack = tag.amin - required;
          }
          data.worst_hold_slack =
              std::min(data.worst_hold_slack, static_cast<float>(slack));
        }
      }

      if (options.compute_arrivals && state.is_timed()) {
        double slack;
        if (state.kind == StateKind::kMaxDelay) {
          slack = state.value - tag.amax;
        } else {
          const double mult = state.kind == StateKind::kMcp ? state.value : 1.0;
          const double tc = setup_relation(tag.launch, cap.clock, mult);
          double launch_edge = 0.0;
          if (tag.launch.valid()) {
            const sdc::Clock& l = sdc.clock(tag.launch);
            launch_edge = l.waveform.empty() ? 0.0 : l.waveform[0];
          }
          const double required =
              launch_edge + tc + cap_lat - unc - setup_time - output_delay;
          slack = required - tag.amax;
        }
        data.worst_slack =
            std::min(data.worst_slack, static_cast<float>(slack));
        data.worst_arrival = std::max(data.worst_arrival, tag.amax);
      }
    }
  }
  relations_.fold_since(first_row);
}

std::unordered_map<uint32_t, float> Propagator::worst_slack_by_endpoint() const {
  std::unordered_map<uint32_t, float> out;
  for (const auto& [key, data] : relations_) {
    if (data.worst_slack >= 1e29f) continue;  // nothing timed
    auto [it, inserted] = out.emplace(key.endpoint.value(), data.worst_slack);
    if (!inserted) it->second = std::min(it->second, data.worst_slack);
  }
  return out;
}

std::unordered_map<uint32_t, float> Propagator::worst_hold_slack_by_endpoint()
    const {
  std::unordered_map<uint32_t, float> out;
  for (const auto& [key, data] : relations_) {
    if (data.worst_hold_slack >= 1e29f) continue;
    auto [it, inserted] = out.emplace(key.endpoint.value(), data.worst_hold_slack);
    if (!inserted) it->second = std::min(it->second, data.worst_hold_slack);
  }
  return out;
}

std::vector<uint8_t> Propagator::fanin_cone(const ModeGraph& mode,
                                            const std::vector<PinId>& from_pins) {
  const TimingGraph& graph = mode.graph();
  std::vector<uint8_t> mask(graph.num_nodes(), 0);
  std::vector<PinId> stack;
  for (PinId p : from_pins) {
    if (!mask[p.index()]) {
      mask[p.index()] = 1;
      stack.push_back(p);
    }
  }
  while (!stack.empty()) {
    const PinId pin = stack.back();
    stack.pop_back();
    for (ArcId aid : graph.fanin(pin)) {
      if (!mode.arc_enabled(aid)) continue;
      const PinId from = graph.arc(aid).from;
      if (!mask[from.index()]) {
        mask[from.index()] = 1;
        stack.push_back(from);
      }
    }
  }
  return mask;
}

}  // namespace mm::timing
