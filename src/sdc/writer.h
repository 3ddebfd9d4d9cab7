#pragma once
// SDC writer: serialize an Sdc back to SDC text. Round-tripping a merged
// mode through write_sdc + parse_sdc is part of the validation story — the
// merged constraints the tool emits are real SDC a downstream tool can read.

#include <iosfwd>
#include <string>

#include "sdc/sdc.h"

namespace mm::sdc {

std::string write_sdc(const Sdc& sdc);

/// A constraint value written as the shortest text that parses back to the
/// same double, in printf %g layout (so every value %g already printed
/// exactly keeps its bytes): write_sdc + parse_sdc round-trips each value
/// bitwise, and two values print alike only when they are equal.
struct Num {
  double value;
};

std::ostream& operator<<(std::ostream& os, Num n);

}  // namespace mm::sdc
