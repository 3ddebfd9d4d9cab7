#pragma once
// mm::obs decision journal — a structured, low-overhead event log of *why*
// the merge engine decided what it decided, schema "mm.journal/1" (JSONL).
//
// The metrics registry answers "how many pairs were re-checked"; the
// journal answers "why did modes A and B land in different cliques". Every
// merge-relevant decision is appended as one JSON object per line:
//
//   header        schema marker, first line of every journal
//   mode_add /    session deltas, with the session-stable mode id and the
//   mode_update / mode's content key (merge::content_fingerprint: a hash
//   mode_remove   of deck text + netlist identity)
//   commit_begin  one per session commit(); everything up to the
//   commit_end    matching commit_end is that commit's journal *segment*
//   pair_verdict  one per re-checked pair: mergeable or the first-conflict
//                 provenance (reason category, conflicting constraint
//                 subject, reason text, whether each
//                 endpoint's relationship set was recomputed this commit)
//   clique        one per cover clique: member ids/names and whether the
//                 result was formed fresh, re-merged, or reused
//   refine        per-clique refinement actions (passes 0-3 false paths,
//                 clock refinement counters)
//   equivalence   per-clique two-sided validation outcome
//
// Writer design: events are serialized into per-thread buffers (each with
// its own uncontended mutex, exactly like obs/trace.cpp) and drained to the
// file at phase boundaries — a session commit() drains once at the end
// of the commit, Journal::close() drains the rest — so hot parallel loops
// never contend on the file or a global lock. Each event carries a
// process-wide "seq" (relaxed atomic) giving readers a total order.
//
// Disabled (the default) the whole layer costs one relaxed atomic load per
// emit site. Enable with Journal::open(path); tools wire it to
// --journal-out. Readers live in obs/journal_reader.h and tools/mmreport.

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace mm::obs {

inline constexpr const char* kJournalSchema = "mm.journal/1";

class Journal {
 public:
  /// True once open() succeeded and close() has not run. Emit sites guard
  /// event construction with this (relaxed atomic load).
  static bool enabled();

  /// Truncate `path`, write the header line, and enable journaling.
  /// Returns false (journal stays disabled) if the file cannot be opened.
  static bool open(const std::string& path);

  /// Drain every thread's buffer and disable + close the file. Safe to
  /// call when not open (no-op), so error paths can call unconditionally.
  static void close();

  /// Flush all buffered events to the file. Called at phase boundaries
  /// (end of a session commit()); no-op when disabled.
  static void drain();

  /// Append one already-serialized event line (no trailing newline) to the
  /// calling thread's buffer. Used by JournalEvent; exposed for tests.
  static void append_line(std::string line);

  /// Next process-wide event sequence number (monotonic, starts at 1).
  static uint64_t next_seq();

  /// Events appended so far (drained or buffered), for overhead tests.
  static uint64_t events_appended();
};

/// Builder for one event. Construct with the event name, add fields, and
/// the destructor appends the line to the thread buffer. Construct ONLY
/// under `if (Journal::enabled())` — the builder itself does not re-check.
///
///   if (obs::Journal::enabled()) {
///     obs::JournalEvent ev("pair_verdict");
///     ev.field("a", name_a).field("mergeable", false);
///   }
class JournalEvent {
 public:
  explicit JournalEvent(std::string_view ev) {
    w_.begin_object();
    w_.key("ev").value(ev);
    w_.key("seq").value(Journal::next_seq());
  }
  ~JournalEvent() {
    w_.end_object();
    Journal::append_line(w_.str());
  }
  JournalEvent(const JournalEvent&) = delete;
  JournalEvent& operator=(const JournalEvent&) = delete;

  JournalEvent& field(std::string_view k, std::string_view v) {
    w_.key(k).value(v);
    return *this;
  }
  JournalEvent& field(std::string_view k, const char* v) {
    w_.key(k).value(std::string_view(v));
    return *this;
  }
  JournalEvent& field(std::string_view k, bool v) {
    w_.key(k).value(v);
    return *this;
  }
  JournalEvent& field(std::string_view k, uint64_t v) {
    w_.key(k).value(v);
    return *this;
  }
  JournalEvent& field(std::string_view k, int64_t v) {
    w_.key(k).value(v);
    return *this;
  }
  JournalEvent& field(std::string_view k, uint32_t v) {
    w_.key(k).value(static_cast<uint64_t>(v));
    return *this;
  }
  JournalEvent& field(std::string_view k, int v) {
    w_.key(k).value(static_cast<int64_t>(v));
    return *this;
  }
  JournalEvent& field(std::string_view k, double v) {
    w_.key(k).value(v);
    return *this;
  }
  /// Array-of-strings / array-of-ids fields (clique member lists).
  template <typename Range>
  JournalEvent& string_array(std::string_view k, const Range& values) {
    w_.key(k).begin_array();
    for (const auto& v : values) w_.value(std::string_view(v));
    w_.end_array();
    return *this;
  }
  template <typename Range>
  JournalEvent& id_array(std::string_view k, const Range& values) {
    w_.key(k).begin_array();
    for (const auto& v : values) w_.value(static_cast<uint64_t>(v));
    w_.end_array();
    return *this;
  }

 private:
  JsonWriter w_;
};

}  // namespace mm::obs
