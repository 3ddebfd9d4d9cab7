#include "trace.h"

#include <cstdio>

namespace mmbench {

size_t Tracer::open(const char* name) {
  Span s;
  s.op = op_kinds_.empty() ? 0 : static_cast<uint32_t>(op_kinds_.size() - 1);
  s.parent = stack_.empty() ? -1 : static_cast<int32_t>(stack_.back());
  s.name = name;
  s.start_us = now_us();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(size_t index) {
  spans_[index].end_us = now_us();
  stack_.pop_back();
}

std::vector<double> Tracer::self_us() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_by_op(
    const char* kind) const {
  std::vector<int> slot(op_kinds_.size(), -1);
  int n = 0;
  for (size_t op = 0; op < op_kinds_.size(); ++op) {
    if (std::string(op_kinds_[op]) == kind) slot[op] = n++;
  }
  std::map<std::string, std::vector<double>> out;
  const std::vector<double> self = self_us();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int k = slot[spans_[i].op];
    if (k < 0) continue;
    std::vector<double>& v = out[spans_[i].name];
    v.resize(n, 0.0);
    v[k] += self[i] * 1e-6;
  }
  return out;
}

std::string Tracer::to_json() const {
  const std::vector<double> self = self_us();
  std::string out = "{\"schema\": \"mmbench.spans/1\", \"ops\": [";
  for (size_t op = 0; op < op_kinds_.size(); ++op) {
    out += (op ? ", \"" : "\"") + std::string(op_kinds_[op]) + "\"";
  }
  out += "],\n\"spans\": [\n";
  char buf[256];
  std::map<std::string, double> layer_self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\": %zu, \"op\": %u, \"parent\": %d, \"name\": "
                  "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"self_us\": %.3f}",
                  i ? ",\n" : "", i, s.op, s.parent, s.name, s.start_us,
                  s.end_us, self[i]);
    out += buf;
    layer_self[s.name] += self[i] * 1e-6;
  }
  out += "\n],\n\"self_s_by_layer\": {";
  bool first = true;
  for (const auto& [name, seconds] : layer_self) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.6f", first ? "" : ", ",
                  name.c_str(), seconds);
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

}  // namespace mmbench
