#pragma once
// In-memory span recorder for the traced run. Spans are taken from the
// benchmark's own code, around each call into a library layer, on the one
// thread that drives the replay (a layer that fans out over the pool is one
// span). All spans of one operation share its id; they are written out only
// when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mmbench {

struct Span {
  uint32_t op = 0;       // operation id shared by the operation's spans
  int32_t parent = -1;   // index into Tracer::spans(), -1 for a root
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Start a new operation of the given kind; returns its id.
  uint32_t begin_op(const char* kind) {
    op_kinds_.push_back(kind);
    return static_cast<uint32_t>(op_kinds_.size() - 1);
  }

  /// RAII span around one layer call, nested under the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), index_(t.open(name)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<const char*>& op_kinds() const { return op_kinds_; }

  /// Self time of every span: its duration minus the time its children
  /// cover (children are sequential, since one thread records them).
  std::vector<double> self_us() const;

  /// Per operation of `kind`, the summed self time of each span name, in
  /// seconds: result[name][k] for the k-th such operation (0 when absent).
  std::map<std::string, std::vector<double>> self_by_op(
      const char* kind) const;

  /// The spans as JSON, with each span's self time and a per-layer summary.
  std::string to_json() const;

 private:
  using clock = std::chrono::steady_clock;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_)
        .count();
  }
  size_t open(const char* name);
  void close(size_t index);

  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
  std::vector<const char*> op_kinds_;
};

}  // namespace mmbench
