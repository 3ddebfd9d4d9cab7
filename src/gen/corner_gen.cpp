#include "gen/corner_gen.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace mm::gen {

namespace {

/// Commands whose first numeric argument is a derated value channel,
/// mapped to which CornerSpec scale applies.
double scale_for_command(const std::string& cmd, const CornerSpec& corner) {
  if (cmd == "set_clock_latency" || cmd == "set_clock_uncertainty" ||
      cmd == "set_clock_transition") {
    return corner.clock_scale;
  }
  if (cmd == "set_input_transition" || cmd == "set_drive") {
    return corner.drive_scale;
  }
  if (cmd == "set_load") return corner.load_scale;
  return 1.0;
}

bool looks_numeric(const std::string& token) {
  if (token.empty()) return false;
  const char c = token[0];
  if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') return true;
  // A leading '-' is a flag (-setup, -min) unless a digit follows.
  return c == '-' && token.size() > 1 &&
         (std::isdigit(static_cast<unsigned char>(token[1])) ||
          token[1] == '.');
}

/// Scale the line's first fully-numeric token. Tokens are space-separated;
/// the rebuilt line preserves every other token byte-for-byte and formats
/// the scaled value with ostream default precision — the same style the
/// mode generator streams values with.
std::string scale_first_value(const std::string& line, double scale) {
  std::istringstream in(line);
  std::ostringstream out;
  std::string token;
  bool scaled = false;
  bool first = true;
  while (in >> token) {
    if (!first) out << ' ';
    first = false;
    if (!scaled && looks_numeric(token)) {
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (end != nullptr && *end == '\0') {
        out << value * scale;
        scaled = true;
        continue;
      }
    }
    out << token;
  }
  return out.str();
}

}  // namespace

std::vector<CornerSpec> make_corner_specs(const CornerFamilyParams& params) {
  std::vector<CornerSpec> out;
  const size_t n = params.num_corners == 0 ? 1 : params.num_corners;
  out.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    CornerSpec spec;
    spec.name = params.name_prefix + std::to_string(c);
    const double k = static_cast<double>(c);
    spec.clock_scale = 1.0 + k * params.clock_derate_step;
    spec.drive_scale = 1.0 + k * params.drive_derate_step;
    spec.load_scale = 1.0 + k * params.load_derate_step;
    spec.structural_break =
        params.structural_break_corner != 0 &&
        c == params.structural_break_corner;
    if (params.timing_state_break_corner != 0 &&
        c == params.timing_state_break_corner) {
      spec.timing_state_break = params.timing_state_break;
    }
    out.push_back(std::move(spec));
  }
  return out;
}

std::string apply_corner(const std::string& sdc_text,
                         const CornerSpec& corner) {
  const bool identity = corner.clock_scale == 1.0 &&
                        corner.drive_scale == 1.0 &&
                        corner.load_scale == 1.0 &&
                        !corner.structural_break &&
                        corner.timing_state_break == TimingStateBreak::kNone;
  if (identity) return sdc_text;

  std::ostringstream out;
  std::istringstream in(sdc_text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t cmd_end = line.find(' ');
    const std::string cmd =
        cmd_end == std::string::npos ? line : line.substr(0, cmd_end);
    const double scale = scale_for_command(cmd, corner);
    out << (scale == 1.0 ? line : scale_first_value(line, scale)) << '\n';
  }
  if (corner.structural_break) {
    // An extra drive channel: reshapes the drive list, so this corner's
    // structural fingerprint diverges from the mode's skeleton and the
    // engine must fall back to a full extraction + full pair check.
    out << "set_input_transition " << 0.37 * corner.drive_scale
        << " [get_ports di_1]\n";
  }
  switch (corner.timing_state_break) {
    case TimingStateBreak::kNone:
      break;
    case TimingStateBreak::kCaseAnalysis:
      out << "set_case_analysis 0 [get_pins g0/Z]\n";
      break;
    case TimingStateBreak::kDisableTiming:
      out << "set_disable_timing [get_pins g0/Z]\n";
      break;
  }
  return out.str();
}

CornerFamily generate_corner_family(const DesignParams& design,
                                    const ModeFamilyParams& modes,
                                    const CornerFamilyParams& corners) {
  CornerFamily out;
  out.modes = generate_mode_family(design, modes);
  out.corners = make_corner_specs(corners);
  out.sdc_texts.reserve(out.modes.size());
  for (const GeneratedMode& mode : out.modes) {
    std::vector<std::string> row;
    row.reserve(out.corners.size());
    for (const CornerSpec& corner : out.corners) {
      row.push_back(apply_corner(mode.sdc_text, corner));
    }
    out.sdc_texts.push_back(std::move(row));
  }
  return out;
}

}  // namespace mm::gen
