#include "sdc/writer.h"

#include <charconv>
#include <ostream>
#include <sstream>

namespace mm::sdc {

std::ostream& operator<<(std::ostream& os, Num n) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, n.value, std::chars_format::general);
  return os.write(buf, r.ptr - buf);
}

namespace {

class Writer {
 public:
  explicit Writer(const Sdc& sdc) : sdc_(sdc), design_(sdc.design()) {}

  std::string run() {
    write_clocks();
    write_clock_attributes();
    write_port_delays();
    write_case_analysis();
    write_disables();
    write_clock_groups();
    write_clock_sense();
    write_exceptions();
    write_drive_load();
    return out_.str();
  }

 private:
  void write_clocks() {
    for (const Clock& c : sdc_.clocks()) {
      if (c.is_generated) {
        out_ << "create_generated_clock -name " << c.name;
        out_ << " -source " << pin_ref(c.master_source);
        if (c.divide_by != 1) out_ << " -divide_by " << c.divide_by;
        if (c.multiply_by != 1) out_ << " -multiply_by " << c.multiply_by;
        if (!c.master_clock.empty())
          out_ << " -master_clock " << c.master_clock;
        if (c.add) out_ << " -add";
        for (PinId p : c.sources) out_ << ' ' << pin_ref(p);
        out_ << '\n';
      } else {
        out_ << "create_clock -name " << c.name << " -period "
             << Num{c.period};
        if (c.waveform.size() == 2 &&
            (c.waveform[0] != 0.0 || c.waveform[1] != c.period / 2)) {
          out_ << " -waveform {" << Num{c.waveform[0]} << ' '
               << Num{c.waveform[1]} << '}';
        }
        if (c.add) out_ << " -add";
        for (PinId p : c.sources) out_ << ' ' << pin_ref(p);
        out_ << '\n';
      }
      if (c.propagated) {
        out_ << "set_propagated_clock [get_clocks " << c.name << "]\n";
      }
    }
  }

  void write_clock_attributes() {
    for (const ClockLatency& lat : sdc_.clock_latencies()) {
      out_ << "set_clock_latency";
      if (lat.source) out_ << " -source";
      minmax(lat.minmax);
      out_ << ' ' << Num{lat.value} << ' ' << clock_ref(lat.clock) << '\n';
    }
    for (const ClockUncertainty& unc : sdc_.clock_uncertainties()) {
      out_ << "set_clock_uncertainty";
      setup_hold(unc.setup_hold);
      out_ << ' ' << Num{unc.value} << ' ' << clock_ref(unc.clock) << '\n';
    }
    for (const ClockTransition& tr : sdc_.clock_transitions()) {
      out_ << "set_clock_transition";
      minmax(tr.minmax);
      out_ << ' ' << Num{tr.value} << ' ' << clock_ref(tr.clock) << '\n';
    }
  }

  void write_port_delays() {
    for (const PortDelay& pd : sdc_.port_delays()) {
      out_ << (pd.is_input ? "set_input_delay" : "set_output_delay");
      out_ << ' ' << Num{pd.value};
      if (pd.clock.valid()) out_ << " -clock " << clock_ref(pd.clock);
      if (pd.clock_fall) out_ << " -clock_fall";
      if (pd.add_delay) out_ << " -add_delay";
      minmax(pd.minmax);
      out_ << ' ' << port_ref(pd.port_pin) << '\n';
    }
  }

  void write_case_analysis() {
    for (const CaseAnalysis& ca : sdc_.case_analysis()) {
      out_ << "set_case_analysis "
           << (ca.value == netlist::Logic::kOne ? '1' : '0') << ' '
           << pin_ref(ca.pin) << '\n';
    }
  }

  void write_disables() {
    for (const DisableTiming& dt : sdc_.disables()) {
      out_ << "set_disable_timing ";
      if (dt.pin.valid()) {
        out_ << pin_ref(dt.pin);
      } else {
        const netlist::LibCell& cell = design_.cell_of(dt.inst);
        out_ << "[get_cells " << design_.inst_name(dt.inst) << ']';
        if (dt.from_lib_pin != UINT32_MAX)
          out_ << " -from " << cell.pins()[dt.from_lib_pin].name;
        if (dt.to_lib_pin != UINT32_MAX)
          out_ << " -to " << cell.pins()[dt.to_lib_pin].name;
      }
      out_ << '\n';
    }
  }

  void write_clock_groups() {
    for (const ClockGroups& cg : sdc_.clock_groups()) {
      out_ << "set_clock_groups";
      switch (cg.kind) {
        case ClockGroupKind::kPhysicallyExclusive:
          out_ << " -physically_exclusive";
          break;
        case ClockGroupKind::kLogicallyExclusive:
          out_ << " -logically_exclusive";
          break;
        case ClockGroupKind::kAsynchronous:
          out_ << " -asynchronous";
          break;
      }
      if (!cg.name.empty()) out_ << " -name " << cg.name;
      for (const auto& group : cg.groups) {
        out_ << " -group [get_clocks {";
        for (size_t i = 0; i < group.size(); ++i) {
          if (i) out_ << ' ';
          out_ << sdc_.clock(group[i]).name;
        }
        out_ << "}]";
      }
      out_ << '\n';
    }
  }

  void write_clock_sense() {
    for (const ClockSenseStop& stop : sdc_.clock_sense_stops()) {
      out_ << "set_clock_sense -stop_propagation";
      if (stop.clock.valid()) out_ << " -clock " << clock_ref(stop.clock);
      out_ << ' ' << pin_ref(stop.pin) << '\n';
    }
  }

  void write_exceptions() {
    for (const Exception& ex : sdc_.exceptions()) {
      switch (ex.kind) {
        case ExceptionKind::kFalsePath: out_ << "set_false_path"; break;
        case ExceptionKind::kMulticyclePath:
          out_ << "set_multicycle_path " << Num{ex.value};
          break;
        case ExceptionKind::kMinDelay:
          out_ << "set_min_delay " << Num{ex.value};
          break;
        case ExceptionKind::kMaxDelay:
          out_ << "set_max_delay " << Num{ex.value};
          break;
      }
      if (ex.setup_hold == SetupHoldFlags::setup_only()) out_ << " -setup";
      if (ex.setup_hold == SetupHoldFlags::hold_only()) out_ << " -hold";
      if (!ex.from.empty()) {
        out_ << " -from ";
        point(ex.from);
      }
      for (const ExceptionPoint& th : ex.throughs) {
        out_ << " -through ";
        point(th);
      }
      if (!ex.to.empty()) {
        out_ << " -to ";
        point(ex.to);
      }
      if (!ex.comment.empty()) out_ << " -comment \"" << ex.comment << '"';
      out_ << '\n';
    }
  }

  void write_drive_load() {
    for (const DriveConstraint& dc : sdc_.drives()) {
      out_ << (dc.is_transition ? "set_input_transition" : "set_drive");
      minmax(dc.minmax);
      out_ << ' ' << Num{dc.value} << ' ' << port_ref(dc.port_pin) << '\n';
    }
    for (const LoadConstraint& lc : sdc_.loads()) {
      out_ << "set_load " << Num{lc.value} << ' ' << port_ref(lc.port_pin)
           << '\n';
    }
    for (const DesignRule& rule : sdc_.design_rules()) {
      out_ << (rule.kind == DesignRule::Kind::kMaxTransition
                   ? "set_max_transition "
                   : "set_max_capacitance ")
           << Num{rule.value};
      if (rule.port_pin.valid()) out_ << ' ' << port_ref(rule.port_pin);
      out_ << '\n';
    }
  }

  void minmax(const MinMaxFlags& mm) {
    if (mm == MinMaxFlags::min_only()) out_ << " -min";
    if (mm == MinMaxFlags::max_only()) out_ << " -max";
  }

  void setup_hold(const SetupHoldFlags& sh) {
    if (sh == SetupHoldFlags::setup_only()) out_ << " -setup";
    if (sh == SetupHoldFlags::hold_only()) out_ << " -hold";
  }

  void point(const ExceptionPoint& pt) {
    // Multiple anchors in one -from/-through/-to: emit as a brace list of
    // object references inside [list ...]? SDC allows a single collection;
    // we emit [list ...] which our parser and real tools accept.
    const size_t total = pt.pins.size() + pt.clocks.size();
    if (total > 1) out_ << "[list ";
    bool first = true;
    for (ClockId c : pt.clocks) {
      if (!first) out_ << ' ';
      out_ << clock_ref(c);
      first = false;
    }
    for (PinId p : pt.pins) {
      if (!first) out_ << ' ';
      out_ << pin_ref(p);
      first = false;
    }
    if (total > 1) out_ << ']';
  }

  std::string clock_ref(ClockId c) {
    return "[get_clocks " + sdc_.clock(c).name + "]";
  }

  std::string pin_ref(PinId p) {
    if (!p.valid()) return "{}";
    const std::string name(design_.pin_name(p));
    if (design_.pin(p).is_port()) return "[get_ports " + name + "]";
    return "[get_pins " + name + "]";
  }

  std::string port_ref(PinId p) {
    return "[get_ports " + std::string(design_.pin_name(p)) + "]";
  }

  const Sdc& sdc_;
  const netlist::Design& design_;
  std::ostringstream out_;
};

}  // namespace

std::string write_sdc(const Sdc& sdc) { return Writer(sdc).run(); }

}  // namespace mm::sdc
