#pragma once
// Read side of the mm.journal/1 decision journal, shared by tools/mmreport
// and tests/test_journal.cpp:
//
//   read_journal     parse a JSONL journal file (schema-checked)
//   explain_pair     the "why don't these two modes merge" chain — every
//                    commit's re-check verdict with first-conflict
//                    provenance (including the first conflicting corner on
//                    MCMM journals, which carry corner fields at C > 1)
//                    and where the cover placed each mode
//   render_timeline  per-commit session history: deltas -> pairs rechecked
//                    -> cliques dirtied (and, on MCMM journals, how many
//                    corner merges shared corner 0's refinement) -> bytes
//                    changed
//   profile_report   top-k self-time table aggregated from a Chrome
//                    trace_event file (--trace-out output)
//
// All renderers are deterministic functions of the journal/trace contents
// and never print event seq numbers (the one field whose value depends on
// thread scheduling), so their output is byte-identical across --threads
// values of the producing run.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_parse.h"

namespace mm::obs {

/// One parsed journal line.
struct JournalRecord {
  std::string ev;  // event type ("mode_add", "pair_verdict", ...)
  JsonValue json;  // full event object
};

/// A parsed journal file, in file order.
struct JournalData {
  std::string schema;
  std::vector<JournalRecord> events;
};

/// Parse a mm.journal/1 file. Throws mm::Error when the file is missing,
/// a line is not valid JSON, a line lacks the "ev" field, or the first
/// line is not a header with the expected schema.
JournalData read_journal(const std::string& path);

/// Render the merge-decision chain for the mode pair named `a` / `b`.
/// Throws mm::Error when either name never appears in the journal.
std::string explain_pair(const JournalData& journal, std::string_view a,
                         std::string_view b);

/// Render the per-commit session history.
std::string render_timeline(const JournalData& journal);

/// Aggregate a Chrome trace_event JSON document (the --trace-out format)
/// into a top-`top_k` self-time table. Self time is a span's duration minus
/// its same-thread nested spans. Throws mm::Error on malformed input.
std::string profile_report(std::string_view trace_json, size_t top_k = 20);

}  // namespace mm::obs
