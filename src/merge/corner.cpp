#include "merge/corner.h"

namespace mm::merge {

namespace {

struct Fnv {
  uint64_t h = 14695981039346656037ull;

  void bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void point(const sdc::ExceptionPoint& pt) {
    u64(pt.pins.size());
    for (netlist::PinId p : pt.pins) u64(p.value());
    u64(pt.clocks.size());
    for (sdc::ClockId c : pt.clocks) u64(c.value());
  }

  /// Design identity (extraction output embeds pin/port ids resolved
  /// against this design; full port-name folding is content_key's job —
  /// corner decks are only ever matched against siblings parsed on the same
  /// design).
  void design(const netlist::Design& d) {
    str(d.name());
    u64(d.num_pins());
    u64(d.num_ports());
  }

  /// The clock table: every field clock_key/exception_signature can read.
  void clocks(const Sdc& sdc) {
    u64(sdc.num_clocks());
    for (const sdc::Clock& c : sdc.clocks()) {
      str(c.name);
      f64(c.period);
      u64(c.waveform.size());
      for (double w : c.waveform) f64(w);
      u64(c.sources.size());
      for (netlist::PinId p : c.sources) u64(p.value());
      u64((c.add ? 1u : 0u) | (c.propagated ? 2u : 0u) |
          (c.is_generated ? 4u : 0u));
      if (c.is_generated) {
        str(c.master_clock);
        u64(c.master_source.value());
        u64(static_cast<uint64_t>(c.divide_by));
        u64(static_cast<uint64_t>(c.multiply_by));
      }
    }
  }

  /// Exceptions: anchors AND values — an exception's value (MCP
  /// multiplier, min/max delay) is part of its signature, not a
  /// corner-varying number.
  void exceptions(const Sdc& sdc) {
    u64(sdc.exceptions().size());
    for (const sdc::Exception& ex : sdc.exceptions()) {
      u64(static_cast<uint64_t>(ex.kind));
      f64(ex.value);
      u64((ex.setup_hold.setup ? 1u : 0u) | (ex.setup_hold.hold ? 2u : 0u));
      point(ex.from);
      u64(ex.throughs.size());
      for (const sdc::ExceptionPoint& th : ex.throughs) point(th);
      point(ex.to);
    }
  }
};

}  // namespace

uint64_t structural_fingerprint(const Sdc& sdc) {
  Fnv f;
  f.design(sdc.design());
  f.clocks(sdc);
  f.exceptions(sdc);

  // Drive/load channel shape: which channels exist, in which order —
  // values excluded (they are exactly what corners change).
  f.u64(sdc.drives().size());
  for (const sdc::DriveConstraint& dc : sdc.drives()) {
    f.u64(dc.port_pin.value());
    f.u64((dc.is_transition ? 1u : 0u) | (dc.minmax.min ? 2u : 0u) |
          (dc.minmax.max ? 4u : 0u));
  }
  f.u64(sdc.loads().size());
  for (const sdc::LoadConstraint& lc : sdc.loads()) {
    f.u64(lc.port_pin.value());
  }

  return f.h;
}

namespace {

/// The fields of timing_state_fingerprint, grouped by the ModeGraph build
/// stage that first reads them.
void hash_case_analysis(Fnv& f, const Sdc& sdc) {
  f.u64(sdc.case_analysis().size());
  for (const sdc::CaseAnalysis& ca : sdc.case_analysis()) {
    f.u64(ca.pin.value());
    f.u64(static_cast<uint64_t>(ca.value));
  }
}

void hash_disables(Fnv& f, const Sdc& sdc) {
  f.u64(sdc.disables().size());
  for (const sdc::DisableTiming& dt : sdc.disables()) {
    f.u64(dt.pin.value());
    f.u64(dt.inst.value());
    f.u64(dt.from_lib_pin);
    f.u64(dt.to_lib_pin);
  }
}

/// Clock sense stops, clock groups and the external-delay anchors (which
/// port, which clock edge, which flags — the delay value is a per-corner
/// number).
void hash_clock_state(Fnv& f, const Sdc& sdc) {
  f.u64(sdc.clock_sense_stops().size());
  for (const sdc::ClockSenseStop& s : sdc.clock_sense_stops()) {
    f.u64(s.clock.value());
    f.u64(s.pin.value());
  }
  f.u64(sdc.clock_groups().size());
  for (const sdc::ClockGroups& cg : sdc.clock_groups()) {
    f.u64(static_cast<uint64_t>(cg.kind));
    f.str(cg.name);
    f.u64(cg.groups.size());
    for (const std::vector<sdc::ClockId>& g : cg.groups) {
      f.u64(g.size());
      for (sdc::ClockId c : g) f.u64(c.value());
    }
  }
  f.u64(sdc.port_delays().size());
  for (const sdc::PortDelay& pd : sdc.port_delays()) {
    f.u64(pd.port_pin.value());
    f.u64(pd.clock.value());
    f.u64((pd.is_input ? 1u : 0u) | (pd.clock_fall ? 2u : 0u) |
          (pd.add_delay ? 4u : 0u) | (pd.minmax.min ? 8u : 0u) |
          (pd.minmax.max ? 16u : 0u));
  }
}

}  // namespace

uint64_t timing_state_fingerprint(const Sdc& sdc) {
  Fnv f;
  f.design(sdc.design());
  f.clocks(sdc);
  f.exceptions(sdc);
  hash_case_analysis(f, sdc);
  hash_disables(f, sdc);
  hash_clock_state(f, sdc);
  return f.h;
}

TimingViewKey timing_view_key(const Sdc& sdc) {
  Fnv constants;
  constants.design(sdc.design());
  hash_case_analysis(constants, sdc);
  Fnv arcs;
  hash_disables(arcs, sdc);
  Fnv clocks;
  clocks.clocks(sdc);
  hash_clock_state(clocks, sdc);
  return {constants.h, arcs.h, clocks.h};
}

}  // namespace mm::merge
