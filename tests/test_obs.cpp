// mm::obs — metrics registry, phase-scoped tracing, stats serialization.
//
// The contention tests drive the registry through ThreadPool::parallel_for
// (the same primitive the merge/STA pipeline parallelizes with) and assert
// exact totals: the sharded fast path must lose no update.

#include <gtest/gtest.h>

#include <cctype>
#include <regex>
#include <string>
#include <thread>

#include "obs/obs.h"
#include "util/logger.h"
#include "util/thread_pool.h"

namespace mm::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (recursive descent). Accepts exactly the JSON
// grammar; used to prove every serialized document is loadable by a strict
// parser without adding a dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char c = s_[pos_];
        if (c == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(c) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // unescaped control character
      }
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const size_t start = pos_;
    if (peek('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string(".+-eE").find(s_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(JsonWriter, EscapesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.key("quote\"back\\slash").value("line\nbreak\ttab");
  w.key("nums").begin_array().value(1.5).value(uint64_t{42}).value(
      int64_t{-7});
  w.end_array();
  w.key("flag").value(true);
  w.key("nan_is_null").value(std::nan(""));
  w.end_object();
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST(Metrics, CounterExactUnderParallelFor) {
  Counter c = MetricsRegistry::global().counter("test/obs/counter_pf");
  constexpr size_t kTasks = 256;
  constexpr size_t kAddsPerTask = 1000;
  ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](size_t) {
    for (size_t j = 0; j < kAddsPerTask; ++j) c.add(1);
  });
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
  c.add(5);
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask + 5);
}

TEST(Metrics, HistogramExactUnderParallelFor) {
  Histogram h = MetricsRegistry::global().histogram("test/obs/hist_pf");
  constexpr size_t kTasks = 128;
  constexpr uint64_t kUs = 37;
  ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](size_t i) {
    for (size_t j = 0; j < 100; ++j) h.record_us(kUs + (i % 3));
  });
  EXPECT_EQ(h.count(), kTasks * 100);
  // Every recorded value is 37..39 us; sum must be exact.
  uint64_t expected_sum = 0;
  for (size_t i = 0; i < kTasks; ++i) expected_sum += (kUs + (i % 3)) * 100;
  EXPECT_EQ(h.sum_us(), expected_sum);
}

TEST(Metrics, HistogramBuckets) {
  using detail::HistogramImpl;
  EXPECT_EQ(HistogramImpl::bucket_of(0), 0u);
  EXPECT_EQ(HistogramImpl::bucket_of(1), 1u);
  EXPECT_EQ(HistogramImpl::bucket_of(2), 2u);
  EXPECT_EQ(HistogramImpl::bucket_of(3), 2u);
  EXPECT_EQ(HistogramImpl::bucket_of(4), 3u);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(HistogramImpl::bucket_of(UINT64_MAX), kNumHistBuckets - 1);
}

TEST(Metrics, HistogramPercentilesFromBuckets) {
  Histogram h = MetricsRegistry::global().histogram("test/obs/hist_pct");
  // 100 samples spread over two buckets: 50 at 10 us, 50 at 1000 us.
  for (int i = 0; i < 50; ++i) h.record_us(10);
  for (int i = 0; i < 50; ++i) h.record_us(1000);
  HistogramSnapshot snap;
  for (const HistogramSnapshot& s : MetricsRegistry::global().snapshot().histograms) {
    if (s.name == "test/obs/hist_pct") snap = s;
  }
  ASSERT_EQ(snap.count, 100u);
  // p50 lands in the low bucket, p95/p99 in the high one; factor-of-2
  // bucket resolution, clamped to the recorded min/max.
  EXPECT_LE(snap.percentile_us(0.50), 16u);
  EXPECT_GE(snap.percentile_us(0.50), 8u);
  EXPECT_GT(snap.percentile_us(0.95), 500u);
  EXPECT_LE(snap.percentile_us(0.95), 1000u);
  EXPECT_LE(snap.percentile_us(0.99), 1000u);
  EXPECT_EQ(snap.percentile_us(1.0), 1000u);  // clamped to max

  // Degenerate cases: empty -> 0, single value -> exactly that value.
  HistogramSnapshot empty;
  EXPECT_EQ(empty.percentile_us(0.5), 0u);
  Histogram one = MetricsRegistry::global().histogram("test/obs/hist_one");
  one.record_us(77);
  for (const HistogramSnapshot& s : MetricsRegistry::global().snapshot().histograms) {
    if (s.name == "test/obs/hist_one") {
      EXPECT_EQ(s.percentile_us(0.5), 77u);
      EXPECT_EQ(s.percentile_us(0.99), 77u);
    }
  }
}

TEST(Metrics, GaugeSetAndMax) {
  Gauge g = MetricsRegistry::global().gauge("test/obs/gauge");
  g.set(10);
  g.set_max(5);
  EXPECT_EQ(g.value(), 10);
  g.set_max(22);
  EXPECT_EQ(g.value(), 22);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
}

TEST(Metrics, SnapshotSortedAndDeterministic) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test/obs/z_last").add(1);
  reg.counter("test/obs/a_first").add(2);

  const MetricsSnapshot s1 = reg.snapshot();
  const MetricsSnapshot s2 = reg.snapshot();

  ASSERT_FALSE(s1.counters.empty());
  for (size_t i = 1; i < s1.counters.size(); ++i) {
    EXPECT_LT(s1.counters[i - 1].first, s1.counters[i].first);
  }
  ASSERT_EQ(s1.counters.size(), s2.counters.size());
  for (size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s1.counters[i], s2.counters[i]);
  }

  // Full documents are byte-identical once the process measurements are
  // masked: wall clock, and peak RSS, which can grow between the two calls
  // (under ASan the regex allocations alone raise it).
  const std::regex measured(
      "\"(elapsed_seconds|peak_rss_bytes)\":[0-9.eE+-]+");
  const std::string j1 = std::regex_replace(stats_json(), measured, "X");
  const std::string j2 = std::regex_replace(stats_json(), measured, "X");
  EXPECT_EQ(j1, j2);
}

TEST(Metrics, ResetKeepsHandlesValid) {
  Counter c = MetricsRegistry::global().counter("test/obs/reset");
  c.add(9);
  EXPECT_EQ(c.value(), 9u);
  MetricsRegistry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(Trace, SpanNestingContainment) {
  Trace::set_enabled(true);
  Trace::clear();
  {
    TraceSpan outer(std::string("test/outer"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner(std::string("test/inner"));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Trace::set_enabled(false);

  const std::vector<TraceEvent> events = Trace::collect();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "test/outer") outer = &e;
    if (e.name == "test/inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_GE(inner->dur_us, 1000.0);   // slept >= 2ms
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST(Trace, ChromeJsonFormat) {
  Trace::set_enabled(true);
  Trace::clear();
  {
    TraceSpan a(std::string("fmt/alpha"));
    TraceSpan b(std::string("fmt/beta"));
  }
  Trace::set_enabled(false);
  const std::string json = Trace::chrome_json();

  // Loadable by a strict JSON parser (chrome://tracing / Perfetto first
  // json.parse the file).
  EXPECT_TRUE(JsonChecker(json).valid()) << json;

  // Chrome trace_event required structure: traceEvents array of complete
  // events with name/ph/ts/dur/pid/tid, plus process metadata.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fmt/alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fmt/beta\""), std::string::npos);
  for (const char* key : {"\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Trace, SpansUnderParallelForCarryThreadIds) {
  Trace::set_enabled(true);
  Trace::clear();
  ThreadPool pool(4);
  pool.parallel_for(16, [&](size_t i) {
    TraceSpan s("par/span" + std::to_string(i % 2));
    (void)i;
  });
  Trace::set_enabled(false);
  const std::vector<TraceEvent> events = Trace::collect();
  size_t count = 0;
  for (const TraceEvent& e : events) {
    if (e.name.rfind("par/span", 0) == 0) {
      ++count;
      EXPECT_GT(e.tid, 0u);
    }
  }
  EXPECT_EQ(count, 16u);
  EXPECT_TRUE(JsonChecker(Trace::chrome_json()).valid());
}

TEST(Trace, BufferCapDropsEventsAndCounts) {
  Trace::clear();
  Trace::set_buffer_cap(8);
  const uint64_t counter_before =
      MetricsRegistry::global().counter("obs/trace_events_dropped").value();
  const LogLevel prev = Logger::level();
  Logger::set_level(LogLevel::kSilent);  // the one-shot warning stays quiet
  Trace::set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    TraceSpan s(std::string("cap/span"));
  }
  Trace::set_enabled(false);
  Logger::set_level(prev);

  EXPECT_EQ(Trace::events_dropped(), 92u);
  EXPECT_EQ(Trace::collect().size(), 8u);
  EXPECT_EQ(MetricsRegistry::global()
                .counter("obs/trace_events_dropped")
                .value() -
                counter_before,
            92u);

  // clear() re-arms both the cap accounting and the one-shot warning.
  Trace::clear();
  EXPECT_EQ(Trace::events_dropped(), 0u);
  EXPECT_EQ(Trace::buffer_cap(), 8u);
  Trace::set_buffer_cap(0);  // restore the default for later tests
  EXPECT_GT(Trace::buffer_cap(), 8u);
}

TEST(Stats, PhasesAndLogCountsInJson) {
  { TraceSpan s(std::string("statstest/phase")); }
  Logger::reset_counts();
  const LogLevel prev = Logger::level();
  Logger::set_level(LogLevel::kSilent);  // count, but keep stderr quiet
  MM_WARN("synthetic warning %d", 1);
  MM_WARN("synthetic warning %d", 2);
  Logger::set_level(prev);

  StatsMeta meta;
  meta.strings["run"] = "unit-test";
  meta.numbers["answer"] = 42.0;
  const std::string json = stats_json(meta);

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"mm.stats/1\""), std::string::npos);
  EXPECT_NE(json.find("\"statstest/phase\":{\"calls\":"), std::string::npos);
  for (const char* key :
       {"\"p50_seconds\":", "\"p95_seconds\":", "\"p99_seconds\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"warnings\":2"), std::string::npos);
  EXPECT_NE(json.find("\"run\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\":"), std::string::npos);
  Logger::reset_counts();
}

TEST(Stats, ProfileTableListsPhases) {
  { TraceSpan s(std::string("profiletest/phase")); }
  const std::string table = profile_table();
  EXPECT_NE(table.find("profiletest/phase"), std::string::npos);
  EXPECT_NE(table.find("calls"), std::string::npos);
  for (const char* col : {"p50(s)", "p95(s)", "p99(s)"}) {
    EXPECT_NE(table.find(col), std::string::npos) << col;
  }
}

TEST(Stats, PeakRssPositive) { EXPECT_GT(peak_rss_bytes(), 0); }

TEST(Logger, PrefixStyleRoundTrip) {
  EXPECT_EQ(Logger::prefix_style(), LogPrefixStyle::kPlain);
  Logger::set_prefix_style(LogPrefixStyle::kTimestamped);
  EXPECT_EQ(Logger::prefix_style(), LogPrefixStyle::kTimestamped);
  Logger::set_prefix_style(LogPrefixStyle::kPlain);
}

}  // namespace
}  // namespace mm::obs
