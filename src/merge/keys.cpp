#include "merge/keys.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sdc/writer.h"

namespace mm::merge {

std::string clock_key(const Sdc& sdc, ClockId id) {
  const sdc::Clock& c = sdc.clock(id);
  std::vector<uint32_t> srcs;
  for (PinId p : c.sources) srcs.push_back(p.value());
  std::sort(srcs.begin(), srcs.end());
  std::ostringstream os;
  for (uint32_t s : srcs) os << 'p' << s << ',';
  os << "T=" << sdc::Num{c.period};
  for (double w : c.waveform) os << ':' << sdc::Num{w};
  if (c.is_generated) {
    os << ";gen:" << c.master_source.value() << '/' << c.divide_by << 'x'
       << c.multiply_by;
  }
  return os.str();
}

std::set<std::string> mode_clock_keys(const Sdc& sdc) {
  std::set<std::string> keys;
  for (size_t i = 0; i < sdc.num_clocks(); ++i) {
    keys.insert(clock_key(sdc, ClockId(i)));
  }
  return keys;
}

std::string exception_signature(const Sdc& sdc, const sdc::Exception& ex,
                                bool include_value) {
  std::ostringstream os;
  os << static_cast<int>(ex.kind);
  if (include_value) os << '=' << sdc::Num{ex.value};
  os << "|sh" << ex.setup_hold.setup << ex.setup_hold.hold;
  auto point = [&](const sdc::ExceptionPoint& pt) {
    std::vector<uint32_t> pins;
    for (PinId p : pt.pins) pins.push_back(p.value());
    std::sort(pins.begin(), pins.end());
    for (uint32_t p : pins) os << 'p' << p << ',';
    std::vector<std::string> clocks;
    for (ClockId c : pt.clocks) clocks.push_back(clock_key(sdc, c));
    std::sort(clocks.begin(), clocks.end());
    for (const std::string& c : clocks) os << "c{" << c << "},";
  };
  os << "|F:";
  point(ex.from);
  for (const sdc::ExceptionPoint& th : ex.throughs) {
    os << "|T:";
    point(th);
  }
  os << "|E:";
  point(ex.to);
  return os.str();
}

std::set<std::string> effective_from_keys(const Sdc& sdc,
                                          const sdc::Exception& ex) {
  if (ex.from.clocks.empty()) return mode_clock_keys(sdc);
  std::set<std::string> keys;
  for (ClockId c : ex.from.clocks) keys.insert(clock_key(sdc, c));
  return keys;
}

}  // namespace mm::merge
