#include "sdc/parser.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"
#include "sdc/lexer.h"
#include "sdc/query.h"
#include "util/logger.h"

namespace mm::sdc {
namespace {

// ---------------------------------------------------------------------------
// Argument scanner: splits a command's words into options (with optional
// value words) and positional words, validating against a per-command spec.
// ---------------------------------------------------------------------------

struct OptSpec {
  std::string_view name;
  bool takes_value = false;
};

class Args {
 public:
  Args(const Command& cmd, std::initializer_list<OptSpec> specs) : cmd_(cmd) {
    for (size_t i = 1; i < cmd.words.size(); ++i) {
      const Word& w = cmd.words[i];
      if (w.is_plain() && !w.text.empty() && w.text[0] == '-' &&
          !is_number(w.text)) {
        const OptSpec* spec = find_spec(specs, w.text);
        if (!spec) {
          throw Error(location() + "unknown option '" + w.text + "' for " +
                      command_name());
        }
        if (spec->takes_value) {
          if (i + 1 >= cmd.words.size()) {
            throw Error(location() + "option '" + w.text + "' needs a value");
          }
          options_[spec->name].push_back(&cmd.words[++i]);
        } else {
          options_[spec->name];  // present, no values
        }
      } else {
        positional_.push_back(&w);
      }
    }
  }

  bool has(std::string_view opt) const { return options_.count(opt) > 0; }

  const Word* value(std::string_view opt) const {
    auto it = options_.find(opt);
    if (it == options_.end() || it->second.empty()) return nullptr;
    return it->second.back();
  }

  std::vector<const Word*> values(std::string_view opt) const {
    auto it = options_.find(opt);
    return it == options_.end() ? std::vector<const Word*>{} : it->second;
  }

  const std::vector<const Word*>& positional() const { return positional_; }

  std::string command_name() const {
    return cmd_.words.empty() ? "?" : cmd_.words[0].text;
  }
  std::string location() const {
    return "sdc:" + std::to_string(cmd_.line) + ": ";
  }

 private:
  static bool is_number(std::string_view s) {
    // "-5", "-0.3" are values, not options.
    return s.size() > 1 && (std::isdigit(static_cast<unsigned char>(s[1])) || s[1] == '.');
  }

  static const OptSpec* find_spec(std::initializer_list<OptSpec>& specs,
                                  std::string_view name) {
    for (const OptSpec& s : specs) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  const Command& cmd_;
  std::unordered_map<std::string_view, std::vector<const Word*>> options_;
  std::vector<const Word*> positional_;
};

double word_to_double(const Word& w, const std::string& what) {
  if (!w.is_plain()) throw Error("expected number for " + what);
  char* end = nullptr;
  const double v = std::strtod(w.text.c_str(), &end);
  if (end == w.text.c_str() || *end != '\0') {
    throw Error("bad number '" + w.text + "' for " + what);
  }
  // strtod accepts "nan" and "inf" and saturates overflow to +-inf; none of
  // them is a usable constraint value.
  if (!std::isfinite(v)) {
    throw Error("non-finite number '" + w.text + "' for " + what);
  }
  return v;
}

int word_to_int(const Word& w, const std::string& what) {
  if (!w.is_plain()) throw Error("expected integer for " + what);
  int v = 0;
  auto [ptr, ec] = std::from_chars(w.text.data(), w.text.data() + w.text.size(), v);
  if (ec != std::errc{} || ptr != w.text.data() + w.text.size()) {
    throw Error("bad integer '" + w.text + "' for " + what);
  }
  return v;
}

std::vector<double> word_to_double_list(const Word& w, const std::string& what) {
  std::vector<double> out;
  if (w.kind == Word::Kind::kBrace) {
    for (const Word& c : w.children) out.push_back(word_to_double(c, what));
  } else {
    out.push_back(word_to_double(w, what));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(Sdc& sdc)
      : sdc_(sdc), ctx_(&sdc.design(), &sdc) {}

  void run(std::string_view text) {
    for (const Command& cmd : lex_sdc(text)) {
      try {
        dispatch(cmd);
      } catch (const Error& e) {
        // Prefix line info if the handler didn't.
        std::string msg = e.what();
        if (msg.rfind("sdc:", 0) != 0) {
          msg = "sdc:" + std::to_string(cmd.line) + ": " + msg;
        }
        throw Error(msg);
      }
    }
    // Generated clocks whose master appeared later in the file (or is
    // itself generated) get their waveform derived now; iterate for
    // gen-of-gen chains.
    for (size_t round = 0; round < sdc_.num_clocks(); ++round) {
      bool changed = false;
      for (size_t ci = 0; ci < sdc_.num_clocks(); ++ci) {
        sdc::Clock& clock = sdc_.clock_mutable(ClockId(ci));
        if (!clock.is_generated || clock.period > 0.0) continue;
        derive_generated_waveform(clock);
        changed |= clock.period > 0.0;
      }
      if (!changed) break;
    }
  }

 private:
  void dispatch(const Command& cmd) {
    MM_ASSERT(!cmd.words.empty());
    const Word& head = cmd.words[0];
    if (!head.is_plain()) throw Error("command must be a word");
    const std::string& name = head.text;

    if (name == "create_clock") return cmd_create_clock(cmd);
    if (name == "create_generated_clock") return cmd_create_generated_clock(cmd);
    if (name == "set_clock_latency") return cmd_set_clock_latency(cmd);
    if (name == "set_clock_uncertainty") return cmd_set_clock_uncertainty(cmd);
    if (name == "set_clock_transition") return cmd_set_clock_transition(cmd);
    if (name == "set_propagated_clock") return cmd_set_propagated_clock(cmd);
    if (name == "set_input_delay") return cmd_port_delay(cmd, /*is_input=*/true);
    if (name == "set_output_delay") return cmd_port_delay(cmd, /*is_input=*/false);
    if (name == "set_case_analysis") return cmd_set_case_analysis(cmd);
    if (name == "set_disable_timing") return cmd_set_disable_timing(cmd);
    if (name == "set_false_path")
      return cmd_exception(cmd, ExceptionKind::kFalsePath);
    if (name == "set_multicycle_path")
      return cmd_exception(cmd, ExceptionKind::kMulticyclePath);
    if (name == "set_min_delay") return cmd_exception(cmd, ExceptionKind::kMinDelay);
    if (name == "set_max_delay") return cmd_exception(cmd, ExceptionKind::kMaxDelay);
    if (name == "set_clock_groups") return cmd_set_clock_groups(cmd);
    if (name == "set_clock_sense") return cmd_set_clock_sense(cmd);
    if (name == "set_input_transition") return cmd_set_input_transition(cmd);
    if (name == "set_drive") return cmd_set_drive(cmd);
    if (name == "set_driving_cell") return cmd_set_driving_cell(cmd);
    if (name == "set_load") return cmd_set_load(cmd);
    if (name == "set_max_transition")
      return cmd_design_rule(cmd, DesignRule::Kind::kMaxTransition);
    if (name == "set_max_capacitance")
      return cmd_design_rule(cmd, DesignRule::Kind::kMaxCapacitance);

    // Environment/bookkeeping commands that do not affect merging or the
    // timing graph: accepted (validated for basic shape) and recorded as a
    // debug note, matching how sign-off decks are written.
    if (name == "set_units" || name == "set_time_unit" ||
        name == "set_operating_conditions" || name == "set_wire_load_model" ||
        name == "set_wire_load_mode" || name == "set_max_fanout" ||
        name == "set_ideal_network" || name == "set_dont_touch" ||
        name == "set_max_area" || name == "current_design" ||
        name == "set_design_top") {
      MM_DEBUG("sdc:%d: ignoring environment command %s", cmd.line,
               name.c_str());
      return;
    }

    throw Error("unsupported SDC command: " + name);
  }

  // --- object helpers ----------------------------------------------------

  ObjectSet eval_all(const std::vector<const Word*>& words, unsigned accept) {
    ObjectSet out;
    for (const Word* w : words) out.append(ctx_.evaluate(*w, accept));
    return out;
  }

  std::vector<ClockId> eval_clocks(const std::vector<const Word*>& words) {
    return eval_all(words, kAcceptClocks).clocks;
  }

  std::vector<PinId> eval_pins(const std::vector<const Word*>& words) {
    return eval_all(words, kAcceptPins).pins;
  }

  MinMaxFlags minmax_flags(const Args& args) {
    const bool has_min = args.has("-min");
    const bool has_max = args.has("-max");
    if (has_min == has_max) return MinMaxFlags::both();
    return has_min ? MinMaxFlags::min_only() : MinMaxFlags::max_only();
  }

  SetupHoldFlags setup_hold_flags(const Args& args) {
    const bool has_setup = args.has("-setup");
    const bool has_hold = args.has("-hold");
    if (has_setup == has_hold) return SetupHoldFlags::both();
    return has_setup ? SetupHoldFlags::setup_only()
                     : SetupHoldFlags::hold_only();
  }

  // --- command handlers ---------------------------------------------------

  void cmd_create_clock(const Command& cmd) {
    Args args(cmd, {{"-name", true},
                    {"-period", true},
                    {"-waveform", true},
                    {"-add", false},
                    {"-p", true},  // paper shorthand "-p 10"
                    {"-comment", true}});
    Clock clock;
    const Word* period = args.value("-period");
    if (!period) period = args.value("-p");
    if (!period) throw Error("create_clock requires -period");
    clock.period = word_to_double(*period, "-period");
    if (clock.period <= 0.0) {
      throw Error("create_clock -period must be positive, got '" +
                  period->text + "'");
    }
    if (const Word* wf = args.value("-waveform")) {
      clock.waveform = word_to_double_list(*wf, "-waveform");
      if (clock.waveform.size() != 2) {
        throw Error("create_clock -waveform expects {rise fall}");
      }
    }
    clock.add = args.has("-add");
    clock.sources = eval_pins(args.positional());
    if (const Word* name = args.value("-name")) {
      if (!name->is_plain()) throw Error("bad -name");
      clock.name = name->text;
    } else if (!clock.sources.empty()) {
      clock.name = std::string(sdc_.design().pin_name(clock.sources[0]));
    } else {
      throw Error("create_clock requires -name or a source port");
    }
    sdc_.add_clock(std::move(clock));
  }

  void cmd_create_generated_clock(const Command& cmd) {
    Args args(cmd, {{"-name", true},
                    {"-source", true},
                    {"-divide_by", true},
                    {"-multiply_by", true},
                    {"-master_clock", true},
                    {"-add", false},
                    {"-invert", false},
                    {"-comment", true}});
    Clock clock;
    clock.is_generated = true;
    const Word* src = args.value("-source");
    if (!src) throw Error("create_generated_clock requires -source");
    const std::vector<PinId> srcs = eval_pins({src});
    if (srcs.size() != 1)
      throw Error("create_generated_clock -source must name one pin");
    clock.master_source = srcs[0];
    if (const Word* div = args.value("-divide_by"))
      clock.divide_by = word_to_int(*div, "-divide_by");
    if (const Word* mul = args.value("-multiply_by"))
      clock.multiply_by = word_to_int(*mul, "-multiply_by");
    if (clock.divide_by <= 0 || clock.multiply_by <= 0)
      throw Error("generated clock divide/multiply must be positive");
    if (const Word* master = args.value("-master_clock")) {
      clock.master_clock = master->is_plain()
                               ? master->text
                               : std::string();
      if (clock.master_clock.empty()) {
        const std::vector<ClockId> mc = eval_clocks({master});
        if (mc.size() != 1) throw Error("-master_clock must name one clock");
        clock.master_clock = sdc_.clock(mc[0]).name;
      }
    }
    clock.add = args.has("-add");
    clock.sources = eval_pins(args.positional());
    if (const Word* name = args.value("-name")) {
      clock.name = name->text;
    } else if (!clock.sources.empty()) {
      clock.name = std::string(sdc_.design().pin_name(clock.sources[0]));
    } else {
      throw Error("create_generated_clock requires -name or a source pin");
    }
    // Period/waveform resolved from the master at graph-build time; store
    // the division for now. If the master is known already, derive period.
    derive_generated_waveform(clock);
    sdc_.add_clock(std::move(clock));
  }

  void derive_generated_waveform(Clock& clock) {
    const Clock* master = nullptr;
    if (!clock.master_clock.empty()) {
      const ClockId m = sdc_.find_clock(clock.master_clock);
      if (m.valid()) master = &sdc_.clock(m);
    } else {
      // Find a clock whose source is the -source pin (or any clock if only
      // one exists — common simple case).
      for (const Clock& c : sdc_.clocks()) {
        for (PinId s : c.sources) {
          if (s == clock.master_source) {
            master = &c;
            break;
          }
        }
        if (master) break;
      }
      if (!master && sdc_.num_clocks() == 1) master = &sdc_.clock(ClockId(0u));
      if (master) clock.master_clock = master->name;
    }
    if (master) {
      clock.period =
          master->period * clock.divide_by / clock.multiply_by;
      clock.waveform = {0.0, clock.period / 2.0};
    }
  }

  void cmd_set_clock_latency(const Command& cmd) {
    Args args(cmd, {{"-source", false},
                    {"-min", false},
                    {"-max", false},
                    {"-early", false},
                    {"-late", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_clock_latency requires value and clocks");
    ClockLatency lat;
    lat.value = word_to_double(*pos[0], "latency");
    lat.source = args.has("-source");
    lat.minmax = minmax_flags(args);
    if (args.has("-early") && !args.has("-late")) lat.minmax = MinMaxFlags::min_only();
    if (args.has("-late") && !args.has("-early")) lat.minmax = MinMaxFlags::max_only();
    for (ClockId c : eval_clocks({pos.begin() + 1, pos.end()})) {
      lat.clock = c;
      sdc_.clock_latencies().push_back(lat);
    }
  }

  void cmd_set_clock_uncertainty(const Command& cmd) {
    Args args(cmd, {{"-setup", false}, {"-hold", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_clock_uncertainty requires value and clocks");
    ClockUncertainty unc;
    unc.value = word_to_double(*pos[0], "uncertainty");
    unc.setup_hold = setup_hold_flags(args);
    for (ClockId c : eval_clocks({pos.begin() + 1, pos.end()})) {
      unc.clock = c;
      sdc_.clock_uncertainties().push_back(unc);
    }
  }

  void cmd_set_clock_transition(const Command& cmd) {
    Args args(cmd, {{"-min", false}, {"-max", false},
                    {"-rise", false}, {"-fall", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_clock_transition requires value and clocks");
    ClockTransition tr;
    tr.value = word_to_double(*pos[0], "transition");
    tr.minmax = minmax_flags(args);
    for (ClockId c : eval_clocks({pos.begin() + 1, pos.end()})) {
      tr.clock = c;
      sdc_.clock_transitions().push_back(tr);
    }
  }

  void cmd_set_propagated_clock(const Command& cmd) {
    Args args(cmd, {});
    for (ClockId c : eval_clocks(args.positional())) {
      sdc_.clock_mutable(c).propagated = true;
    }
  }

  void cmd_port_delay(const Command& cmd, bool is_input) {
    Args args(cmd, {{"-clock", true},
                    {"-clock_fall", false},
                    {"-add_delay", false},
                    {"-min", false},
                    {"-max", false},
                    {"-rise", false},
                    {"-fall", false},
                    {"-network_latency_included", false},
                    {"-source_latency_included", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_input/output_delay requires value and ports");
    PortDelay pd;
    pd.is_input = is_input;
    pd.value = word_to_double(*pos[0], "delay");
    pd.clock_fall = args.has("-clock_fall");
    pd.add_delay = args.has("-add_delay");
    pd.minmax = minmax_flags(args);
    if (const Word* clk = args.value("-clock")) {
      const std::vector<ClockId> clocks = eval_clocks({clk});
      if (clocks.size() != 1) throw Error("-clock must name one clock");
      pd.clock = clocks[0];
    }
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      if (!sdc_.design().pin(p).is_port()) {
        throw Error("external delay target must be a port: " +
                    std::string(sdc_.design().pin_name(p)));
      }
      pd.port_pin = p;
      sdc_.port_delays().push_back(pd);
    }
  }

  void cmd_set_case_analysis(const Command& cmd) {
    Args args(cmd, {});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_case_analysis requires value and pins");
    const Word& vw = *pos[0];
    Logic value;
    if (vw.text == "0" || vw.text == "zero") {
      value = Logic::kZero;
    } else if (vw.text == "1" || vw.text == "one") {
      value = Logic::kOne;
    } else {
      throw Error("set_case_analysis value must be 0 or 1, got '" + vw.text + "'");
    }
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      sdc_.case_analysis().push_back({p, value});
    }
  }

  void cmd_set_disable_timing(const Command& cmd) {
    Args args(cmd, {{"-from", true}, {"-to", true}});
    const ObjectSet objs = eval_all(args.positional(), kAcceptPins | kAcceptInsts);
    const Word* from = args.value("-from");
    const Word* to = args.value("-to");
    if ((from || to) && objs.insts.empty()) {
      throw Error("set_disable_timing -from/-to requires cell objects");
    }
    for (PinId p : objs.pins) {
      DisableTiming dt;
      dt.pin = p;
      sdc_.disables().push_back(dt);
    }
    for (InstId inst : objs.insts) {
      DisableTiming dt;
      dt.inst = inst;
      const netlist::LibCell& cell = sdc_.design().cell_of(inst);
      if (from) {
        dt.from_lib_pin = cell.find_pin(from->text);
        if (dt.from_lib_pin == UINT32_MAX)
          throw Error("set_disable_timing: no pin '" + from->text + "' on " +
                      cell.name());
      }
      if (to) {
        dt.to_lib_pin = cell.find_pin(to->text);
        if (dt.to_lib_pin == UINT32_MAX)
          throw Error("set_disable_timing: no pin '" + to->text + "' on " +
                      cell.name());
      }
      sdc_.disables().push_back(dt);
    }
  }

  ExceptionPoint eval_exception_point(const std::vector<const Word*>& words,
                                      bool allow_clocks) {
    const unsigned accept =
        kAcceptPins | kAcceptInsts | (allow_clocks ? kAcceptClocks : 0u);
    const ObjectSet objs = eval_all(words, accept);
    ExceptionPoint pt;
    pt.pins = objs.pins;
    pt.clocks = objs.clocks;
    // Expand instance anchors to the instance's pins (SDC -through on a cell
    // means through any pin of the cell).
    for (InstId inst : objs.insts) {
      const netlist::Instance& in = sdc_.design().instance(inst);
      pt.pins.insert(pt.pins.end(), in.pins.begin(), in.pins.end());
    }
    return pt;
  }

  void cmd_exception(const Command& cmd, ExceptionKind kind) {
    Args args(cmd, {{"-from", true},
                    {"-rise_from", true},
                    {"-fall_from", true},
                    {"-to", true},
                    {"-rise_to", true},
                    {"-fall_to", true},
                    {"-through", true},
                    {"-rise_through", true},
                    {"-fall_through", true},
                    {"-setup", false},
                    {"-hold", false},
                    {"-rise", false},
                    {"-fall", false},
                    {"-start", false},
                    {"-end", false},
                    {"-comment", true}});
    Exception ex;
    ex.kind = kind;
    ex.setup_hold = setup_hold_flags(args);
    if (const Word* c = args.value("-comment")) ex.comment = c->text;

    std::vector<const Word*> from_words = args.values("-from");
    for (const Word* w : args.values("-rise_from")) from_words.push_back(w);
    for (const Word* w : args.values("-fall_from")) from_words.push_back(w);
    if (!from_words.empty())
      ex.from = eval_exception_point(from_words, /*allow_clocks=*/true);

    std::vector<const Word*> to_words = args.values("-to");
    for (const Word* w : args.values("-rise_to")) to_words.push_back(w);
    for (const Word* w : args.values("-fall_to")) to_words.push_back(w);
    if (!to_words.empty())
      ex.to = eval_exception_point(to_words, /*allow_clocks=*/true);

    // Each -through occurrence is a separate anchor set, in order.
    for (const Word* w : args.values("-through")) {
      ex.throughs.push_back(eval_exception_point({w}, /*allow_clocks=*/false));
    }
    for (const Word* w : args.values("-rise_through")) {
      ex.throughs.push_back(eval_exception_point({w}, /*allow_clocks=*/false));
    }
    for (const Word* w : args.values("-fall_through")) {
      ex.throughs.push_back(eval_exception_point({w}, /*allow_clocks=*/false));
    }

    const auto& pos = args.positional();
    if (kind == ExceptionKind::kFalsePath) {
      if (!pos.empty()) throw Error("set_false_path takes no positional args");
    } else {
      if (pos.size() != 1)
        throw Error("expected exactly one value for this exception");
      ex.value = word_to_double(*pos[0], "exception value");
      if (kind == ExceptionKind::kMulticyclePath && ex.value < 1) {
        throw Error("multicycle multiplier must be >= 1");
      }
    }
    if (ex.from.empty() && ex.to.empty() && ex.throughs.empty()) {
      throw Error("exception requires at least one of -from/-through/-to");
    }
    sdc_.exceptions().push_back(std::move(ex));
  }

  void cmd_set_clock_groups(const Command& cmd) {
    Args args(cmd, {{"-physically_exclusive", false},
                    {"-logically_exclusive", false},
                    {"-asynchronous", false},
                    {"-allow_paths", false},
                    {"-name", true},
                    {"-group", true}});
    ClockGroups cg;
    const int kinds = int(args.has("-physically_exclusive")) +
                      int(args.has("-logically_exclusive")) +
                      int(args.has("-asynchronous"));
    if (kinds != 1) {
      throw Error(
          "set_clock_groups needs exactly one of -physically_exclusive/"
          "-logically_exclusive/-asynchronous");
    }
    if (args.has("-physically_exclusive"))
      cg.kind = ClockGroupKind::kPhysicallyExclusive;
    else if (args.has("-logically_exclusive"))
      cg.kind = ClockGroupKind::kLogicallyExclusive;
    else
      cg.kind = ClockGroupKind::kAsynchronous;
    if (const Word* name = args.value("-name")) cg.name = name->text;
    for (const Word* g : args.values("-group")) {
      cg.groups.push_back(eval_clocks({g}));
    }
    if (cg.groups.size() < 2) {
      // A single group means "this group vs all other clocks"; normalize by
      // adding the complement group.
      if (cg.groups.size() != 1)
        throw Error("set_clock_groups requires at least one -group");
      std::unordered_set<uint32_t> in_group;
      for (ClockId c : cg.groups[0]) in_group.insert(c.value());
      std::vector<ClockId> rest;
      for (size_t i = 0; i < sdc_.num_clocks(); ++i) {
        if (!in_group.count(static_cast<uint32_t>(i))) rest.push_back(ClockId(i));
      }
      cg.groups.push_back(std::move(rest));
    }
    sdc_.clock_groups().push_back(std::move(cg));
  }

  void cmd_set_clock_sense(const Command& cmd) {
    Args args(cmd, {{"-stop_propagation", false},
                    {"-positive", false},
                    {"-negative", false},
                    {"-clock", true},
                    {"-clocks", true}});
    if (!args.has("-stop_propagation")) {
      throw Error("only set_clock_sense -stop_propagation is supported");
    }
    ClockSenseStop stop;
    const Word* clk = args.value("-clock");
    if (!clk) clk = args.value("-clocks");
    std::vector<ClockId> clocks;
    if (clk) clocks = eval_clocks({clk});
    const std::vector<PinId> pins = eval_pins(args.positional());
    if (pins.empty()) throw Error("set_clock_sense requires pins");
    for (PinId p : pins) {
      stop.pin = p;
      if (clocks.empty()) {
        stop.clock = ClockId();
        sdc_.clock_sense_stops().push_back(stop);
      } else {
        for (ClockId c : clocks) {
          stop.clock = c;
          sdc_.clock_sense_stops().push_back(stop);
        }
      }
    }
  }

  void cmd_set_input_transition(const Command& cmd) {
    Args args(cmd, {{"-min", false}, {"-max", false},
                    {"-rise", false}, {"-fall", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2)
      throw Error("set_input_transition requires value and ports");
    DriveConstraint dc;
    dc.is_transition = true;
    dc.value = word_to_double(*pos[0], "transition");
    dc.minmax = minmax_flags(args);
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      dc.port_pin = p;
      sdc_.drives().push_back(dc);
    }
  }

  void cmd_set_drive(const Command& cmd) {
    Args args(cmd, {{"-min", false}, {"-max", false},
                    {"-rise", false}, {"-fall", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2) throw Error("set_drive requires value and ports");
    DriveConstraint dc;
    dc.is_transition = false;
    dc.value = word_to_double(*pos[0], "drive");
    dc.minmax = minmax_flags(args);
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      dc.port_pin = p;
      sdc_.drives().push_back(dc);
    }
  }

  void cmd_set_driving_cell(const Command& cmd) {
    Args args(cmd, {{"-lib_cell", true},
                    {"-pin", true},
                    {"-min", false},
                    {"-max", false}});
    const Word* lib_cell = args.value("-lib_cell");
    if (!lib_cell) throw Error("set_driving_cell requires -lib_cell");
    // Model the driving cell by its output-arc drive resistance.
    const netlist::LibCellId cell =
        sdc_.design().library().find_cell(lib_cell->text);
    if (!cell.valid()) {
      throw Error("set_driving_cell: unknown lib cell '" + lib_cell->text + "'");
    }
    double resistance = 0.1;
    const netlist::LibCell& lc = sdc_.design().library().cell(cell);
    if (!lc.arcs().empty()) resistance = lc.arcs().front().resistance;
    DriveConstraint dc;
    dc.is_transition = false;
    dc.value = resistance;
    dc.minmax = minmax_flags(args);
    for (PinId p : eval_pins(args.positional())) {
      dc.port_pin = p;
      sdc_.drives().push_back(dc);
    }
  }

  void cmd_design_rule(const Command& cmd, DesignRule::Kind kind) {
    Args args(cmd, {{"-clock_path", false}, {"-data_path", false}});
    const auto& pos = args.positional();
    if (pos.empty()) throw Error("design rule requires a value");
    DesignRule rule;
    rule.kind = kind;
    rule.value = word_to_double(*pos[0], "design rule value");
    if (pos.size() == 1) {
      // Design-wide (current_design target).
      sdc_.design_rules().push_back(rule);
      return;
    }
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      rule.port_pin = p;
      sdc_.design_rules().push_back(rule);
    }
  }

  void cmd_set_load(const Command& cmd) {
    Args args(cmd, {{"-min", false}, {"-max", false},
                    {"-pin_load", false}, {"-wire_load", false}});
    const auto& pos = args.positional();
    if (pos.size() < 2) throw Error("set_load requires value and ports");
    LoadConstraint lc;
    lc.value = word_to_double(*pos[0], "load");
    for (PinId p : eval_pins({pos.begin() + 1, pos.end()})) {
      lc.port_pin = p;
      sdc_.loads().push_back(lc);
    }
  }

  Sdc& sdc_;
  QueryContext ctx_;
};

}  // namespace

Sdc parse_sdc(std::string_view text, const netlist::Design& design) {
  Sdc sdc(&design);
  parse_sdc_into(text, sdc);
  return sdc;
}

void parse_sdc_into(std::string_view text, Sdc& sdc) {
  MM_SPAN("sdc/parse");
  MM_COUNT("sdc/bytes_parsed", text.size());
  Parser(sdc).run(text);
}

}  // namespace mm::sdc
