#include "netlist/liberty.h"

#include <cctype>
#include <cmath>
#include <unordered_map>

#include "netlist/function.h"
#include "util/error.h"
#include "util/logger.h"

namespace mm::netlist {

namespace {

// ---------------------------------------------------------------------------
// Generic Liberty syntax: group(args) { attr : value ; complex(args);  ... }
// ---------------------------------------------------------------------------

struct Group {
  std::string type;
  std::vector<std::string> args;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<Group> groups;
  int line = 0;

  const std::string* attr(std::string_view name) const {
    for (const auto& [k, v] : attrs) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  /// All values of a repeated complex attribute (e.g. "values").
  std::vector<const std::string*> attr_all(std::string_view name) const {
    std::vector<const std::string*> out;
    for (const auto& [k, v] : attrs) {
      if (k == name) out.push_back(&v);
    }
    return out;
  }
};

class LibertyParser {
 public:
  explicit LibertyParser(std::string_view text) : text_(text) {}

  Group run() {
    skip_space();
    Group root = parse_group();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after library group");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("liberty:" + std::to_string(line_) + ": " + msg);
  }

  /// An argument loop made no progress: the next byte is a delimiter no
  /// argument may start with.
  [[noreturn]] void unexpected(const std::string& where) const {
    fail(std::string("unexpected '") + peek() + "' " + where);
  }

  void skip_space() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ = std::min(pos_ + 2, text_.size());
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '\\' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
        pos_ += 2;  // line continuation
        ++line_;
      } else {
        break;
      }
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string read_token() {
    skip_space();
    std::string out;
    if (peek() == '"') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size() &&
            text_[pos_ + 1] == '\n') {
          pos_ += 2;  // continuation inside string
          ++line_;
          continue;
        }
        if (text_[pos_] == '\n') ++line_;
        out.push_back(text_[pos_++]);
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      ++pos_;
      return out;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
          c == ')' || c == '{' || c == '}' || c == ':' || c == ';' ||
          c == ',') {
        break;
      }
      out.push_back(c);
      ++pos_;
    }
    return out;
  }

  bool eat(char c) {
    skip_space();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  /// Parses `name (args...) { ... }` with `name` already known to follow.
  Group parse_group() {
    Group group;
    group.line = line_;
    group.type = read_token();
    if (group.type.empty()) fail("expected group name");
    if (!eat('(')) fail("expected '(' after " + group.type);
    while (!eat(')')) {
      const size_t before = pos_;
      const std::string arg = read_token();
      if (!arg.empty()) group.args.push_back(arg);
      eat(',');
      skip_space();
      if (pos_ >= text_.size()) fail("unterminated group arguments");
      if (pos_ == before) unexpected("in " + group.type + " arguments");
    }
    if (!eat('{')) fail("expected '{' after " + group.type + "(...)");

    while (true) {
      skip_space();
      if (eat('}')) break;
      if (pos_ >= text_.size()) fail("unterminated group " + group.type);

      const size_t save_pos = pos_;
      const int save_line = line_;
      const std::string name = read_token();
      if (name.empty()) fail("expected statement in " + group.type);
      skip_space();
      if (peek() == ':') {
        // Simple attribute: name : value... ;
        ++pos_;
        std::string value;
        skip_space();
        while (pos_ < text_.size() && text_[pos_] != ';' &&
               text_[pos_] != '\n') {
          value.push_back(text_[pos_++]);
        }
        eat(';');
        // Trim + strip quotes.
        while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back())))
          value.pop_back();
        if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
          value = value.substr(1, value.size() - 2);
        }
        group.attrs.emplace_back(name, value);
      } else if (peek() == '(') {
        // Complex attribute or nested group: look ahead past the ')'.
        size_t probe = pos_ + 1;
        int depth = 1;
        int probe_line = line_;
        while (probe < text_.size() && depth > 0) {
          if (text_[probe] == '(') ++depth;
          if (text_[probe] == ')') --depth;
          if (text_[probe] == '\n') ++probe_line;
          ++probe;
        }
        while (probe < text_.size() &&
               (std::isspace(static_cast<unsigned char>(text_[probe])) ||
                text_[probe] == '\\')) {
          ++probe;
        }
        if (probe < text_.size() && text_[probe] == '{') {
          // Nested group: re-parse from the saved position.
          pos_ = save_pos;
          line_ = save_line;
          group.groups.push_back(parse_group());
        } else {
          // Complex attribute: join the arguments into one value string.
          ++pos_;  // '('
          std::string value;
          while (!eat(')')) {
            const size_t before = pos_;
            const std::string tok = read_token();
            if (!value.empty() && !tok.empty()) value += ", ";
            value += tok;
            eat(',');
            skip_space();
            if (pos_ >= text_.size()) fail("unterminated complex attribute");
            if (pos_ == before) unexpected("in " + name + " arguments");
          }
          eat(';');
          group.attrs.emplace_back(name, value);
        }
      } else {
        fail("expected ':' or '(' after '" + name + "'");
      }
    }
    return group;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
};

// ---------------------------------------------------------------------------
// Interpretation
// ---------------------------------------------------------------------------

/// Mean of all floats in a Liberty values("...", "...") string.
double values_mean(const std::string& text, double fallback) {
  double sum = 0.0;
  size_t count = 0;
  const char* p = text.c_str();
  while (*p) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) {
      ++p;
      continue;
    }
    sum += v;
    ++count;
    p = end;
  }
  return count ? sum / static_cast<double>(count) : fallback;
}

/// Representative delay of a timing() group (mean over its rise/fall
/// tables; scalar `intrinsic_rise` style attributes also accepted).
double timing_delay(const Group& timing, double fallback) {
  double sum = 0.0;
  size_t count = 0;
  for (const Group& table : timing.groups) {
    if (table.type != "cell_rise" && table.type != "cell_fall" &&
        table.type != "rise_constraint" && table.type != "fall_constraint" &&
        table.type != "rise_transition" && table.type != "fall_transition") {
      continue;
    }
    if (table.type == "rise_transition" || table.type == "fall_transition") {
      continue;  // slews don't contribute to the delay scalar
    }
    for (const std::string* values : table.attr_all("values")) {
      const double mean = values_mean(*values, -1.0);
      if (mean >= 0) {
        sum += mean;
        ++count;
      }
    }
  }
  for (const char* attr : {"intrinsic_rise", "intrinsic_fall"}) {
    if (const std::string* v = timing.attr(attr)) {
      sum += std::atof(v->c_str());
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : fallback;
}

/// Identifiers referenced in a Liberty expression string ("!CK", "D & SE").
std::vector<std::string> expr_identifiers(const std::string& text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_' || text[i] == '[' || text[i] == ']')) {
        ++i;
      }
      out.push_back(text.substr(start, i - start));
    } else {
      ++i;
    }
  }
  return out;
}

TimingSense sense_of(const std::string* s) {
  if (!s) return TimingSense::kNonUnate;
  if (*s == "positive_unate") return TimingSense::kPositive;
  if (*s == "negative_unate") return TimingSense::kNegative;
  return TimingSense::kNonUnate;
}

constexpr double kDefaultResistance = 0.05;
constexpr double kDefaultDelay = 0.4;
constexpr double kDefaultSetup = 0.15;

void interpret_cell(const Group& cell_group, Library& lib) {
  if (cell_group.args.empty()) {
    throw Error("liberty: cell group without a name (line " +
                std::to_string(cell_group.line) + ")");
  }
  const std::string& cell_name = cell_group.args[0];
  LibCell cell(cell_name, CellFunc::kCustom);

  // Sequential state from ff / latch groups.
  std::vector<std::string> state_vars;
  std::string clocked_on, next_state;
  for (const Group& g : cell_group.groups) {
    if (g.type == "ff" || g.type == "latch") {
      cell.set_sequential(true);
      state_vars = g.args;  // (IQ, IQN)
      if (const std::string* v = g.attr("clocked_on")) clocked_on = *v;
      if (const std::string* v = g.attr(g.type == "ff" ? "next_state" : "data_in")) {
        next_state = *v;
      }
      if (g.type == "latch") {
        if (const std::string* v = g.attr("enable")) clocked_on = *v;
        MM_WARN("liberty: cell %s is a latch; modeled as edge-triggered",
                cell_name.c_str());
      }
    }
  }

  // Pins, in declaration order.
  std::unordered_map<std::string, uint32_t> pin_index;
  std::vector<const Group*> pin_groups;
  for (const Group& g : cell_group.groups) {
    if (g.type != "pin" && g.type != "pg_pin") continue;
    if (g.type == "pg_pin") continue;  // power pins: not timing objects
    if (g.args.empty()) {
      throw Error("liberty: pin group without a name in cell " + cell_name);
    }
    LibPin pin;
    pin.name = g.args[0];
    const std::string* dir = g.attr("direction");
    pin.dir = (dir && *dir == "output") ? PinDir::kOutput : PinDir::kInput;
    if (const std::string* cap = g.attr("capacitance")) {
      pin.cap = std::atof(cap->c_str());
    }
    if (const std::string* clk = g.attr("clock")) {
      pin.is_clock = (*clk == "true");
    }
    const uint32_t index = cell.add_pin(pin);
    pin_index.emplace(g.args[0], index);
    pin_groups.push_back(&g);
  }
  if (pin_groups.empty()) {
    MM_WARN("liberty: cell %s has no pins; skipped", cell_name.c_str());
    return;
  }

  // Mark the clock pin from ff.clocked_on when the `clock` attr is absent.
  auto mark_clock = [&](const std::string& expr) {
    for (const std::string& ident : expr_identifiers(expr)) {
      auto it = pin_index.find(ident);
      if (it != pin_index.end()) {
        cell.pin_mutable(it->second).is_clock = true;
        return it->second;
      }
    }
    return UINT32_MAX;
  };
  const uint32_t clock_pin =
      clocked_on.empty() ? UINT32_MAX : mark_clock(clocked_on);

  auto is_state_var = [&](const std::string& name) {
    for (const std::string& sv : state_vars) {
      if (sv == name) return true;
    }
    return false;
  };

  // Output functions + timing arcs.
  bool has_launch = false, has_check = false;
  for (size_t gi = 0; gi < pin_groups.size(); ++gi) {
    const Group& g = *pin_groups[gi];
    const uint32_t this_pin = pin_index.at(g.args[0]);
    const bool is_output = cell.pins()[this_pin].dir == PinDir::kOutput;

    // Combinational function (ignoring pure state-variable functions like
    // "IQ" — those are launch outputs of sequential cells).
    if (is_output && !cell.is_sequential()) {
      if (const std::string* func = g.attr("function")) {
        bool pure_state = true;
        for (const std::string& ident : expr_identifiers(*func)) {
          if (!is_state_var(ident)) pure_state = false;
        }
        if (!pure_state) {
          auto expr = std::make_shared<FuncExpr>(FuncExpr::parse(
              *func, [&](std::string_view name) -> uint32_t {
                auto it = pin_index.find(std::string(name));
                return it == pin_index.end() ? UINT32_MAX : it->second;
              }));
          cell.set_function(std::move(expr));
        }
      }
    }

    for (const Group& timing : g.groups) {
      if (timing.type != "timing") continue;
      const std::string* related = timing.attr("related_pin");
      if (!related) continue;
      for (const std::string& rp : expr_identifiers(*related)) {
        auto it = pin_index.find(rp);
        if (it == pin_index.end()) continue;
        const uint32_t related_pin = it->second;
        const std::string* type = timing.attr("timing_type");

        LibArc arc;
        if (type && (type->rfind("setup_", 0) == 0 ||
                     type->rfind("hold_", 0) == 0 ||
                     *type == "recovery_rising" || *type == "removal_rising")) {
          // Check: this (data) pin constrained against the related clock.
          arc.kind = ArcKind::kSetupHold;
          arc.from_pin = this_pin;
          arc.to_pin = related_pin;
          arc.intrinsic = timing_delay(timing, kDefaultSetup);
          if (type->rfind("setup_", 0) == 0) {
            has_check = true;
            cell.add_arc(arc);
          }
          // hold/recovery/removal values fold into the same check via the
          // graph's hold convention; only one check arc per pin pair.
          continue;
        }
        if (type && (*type == "rising_edge" || *type == "falling_edge")) {
          arc.kind = ArcKind::kLaunch;
          has_launch = true;
        } else {
          arc.kind = ArcKind::kCombinational;
        }
        arc.from_pin = related_pin;
        arc.to_pin = this_pin;
        arc.sense = sense_of(timing.attr("timing_sense"));
        arc.intrinsic = timing_delay(timing, kDefaultDelay);
        arc.resistance = kDefaultResistance;
        cell.add_arc(arc);
      }
    }
  }

  // Synthesize what sequential cells need but the .lib left implicit.
  if (cell.is_sequential() && clock_pin != UINT32_MAX) {
    if (!has_launch) {
      for (uint32_t p = 0; p < cell.pins().size(); ++p) {
        if (cell.pins()[p].dir == PinDir::kOutput) {
          cell.add_arc({clock_pin, p, ArcKind::kLaunch, TimingSense::kNonUnate,
                        kDefaultDelay, kDefaultResistance});
        }
      }
    }
    if (!has_check && !next_state.empty()) {
      for (const std::string& ident : expr_identifiers(next_state)) {
        auto it = pin_index.find(ident);
        if (it != pin_index.end()) {
          cell.add_arc({it->second, clock_pin, ArcKind::kSetupHold,
                        TimingSense::kNonUnate, kDefaultSetup, 0.0});
        }
      }
    }
  }
  // Combinational cells without timing blocks: arcs from the function
  // support (or every input if no function).
  if (!cell.is_sequential() && cell.arcs().empty()) {
    for (uint32_t out = 0; out < cell.pins().size(); ++out) {
      if (cell.pins()[out].dir != PinDir::kOutput) continue;
      if (cell.function()) {
        for (uint32_t in : cell.function()->support()) {
          cell.add_arc({in, out, ArcKind::kCombinational,
                        TimingSense::kNonUnate, kDefaultDelay,
                        kDefaultResistance});
        }
      } else {
        for (uint32_t in = 0; in < cell.pins().size(); ++in) {
          if (cell.pins()[in].dir != PinDir::kInput) continue;
          cell.add_arc({in, out, ArcKind::kCombinational,
                        TimingSense::kNonUnate, kDefaultDelay,
                        kDefaultResistance});
        }
      }
    }
  }

  lib.add_cell(std::move(cell));
}

}  // namespace

Library read_liberty(std::string_view text) {
  const Group root = LibertyParser(text).run();
  if (root.type != "library") {
    throw Error("liberty: expected a library(...) group, got " + root.type);
  }
  Library lib;
  for (const Group& g : root.groups) {
    if (g.type == "cell") interpret_cell(g, lib);
  }
  if (lib.num_cells() == 0) {
    throw Error("liberty: library contains no cells");
  }
  return lib;
}

}  // namespace mm::netlist
