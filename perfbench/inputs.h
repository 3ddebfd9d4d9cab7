#pragma once
// Benchmark inputs: the three workloads' text inputs made from a seed, and
// the front end that turns that text into designs, timing graphs and parsed
// decks. The merge engine only ever sees what load() builds from the text.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/design.h"
#include "sdc/sdc.h"
#include "timing/graph.h"
#include "trace.h"

namespace mmbench {

/// One design's program inputs, as text.
struct DesignText {
  std::string name;
  std::string verilog;
  std::vector<std::string> mode_names;
  std::vector<std::string> corner_names;          // one entry when flat
  std::vector<std::vector<std::string>> decks;    // [mode][corner]
  std::vector<size_t> groups;                     // planted group per mode
};

/// Everything a workload feeds the program.
struct Inputs {
  std::string workload;
  std::vector<DesignText> designs;  // table5: A-F; mcmm: one
  /// The design the warm edit stream runs on (table5: A).
  size_t edit_design = 0;
  /// Per mode of that design, its decks ([corner]) with one per-mode false
  /// path removed; an edit toggles a mode between these and its originals.
  std::vector<std::vector<std::string>> toggled;
  /// The mode each edit toggles, in order: whole seeded permutations, so
  /// every mode is edited equally often.
  std::vector<size_t> victims;
};

bool known_workload(const std::string& name);

/// Build a workload's inputs from `seed`, with `edit_rounds` seeded
/// permutations of the edit design's modes as the edit sequence.
Inputs make_inputs(const std::string& workload, uint64_t seed,
                   size_t edit_rounds);

/// One design after the front end.
struct Loaded {
  std::unique_ptr<mm::netlist::Design> design;
  std::unique_ptr<mm::timing::TimingGraph> graph;
  std::vector<std::vector<std::unique_ptr<mm::sdc::Sdc>>> decks;  // [m][c]

  std::vector<const mm::sdc::Sdc*> corner_decks(size_t corner) const;
};

/// Run the front end on one design: read_verilog, TimingGraph build and
/// parse_sdc of every deck. With a tracer, each layer call gets a span.
Loaded load(const DesignText& text, Tracer* tracer = nullptr);

/// SDC bytes load() parses for one design.
uint64_t sdc_bytes(const DesignText& text);

/// True when `cliques` (mode indices) partitions the modes exactly as the
/// generator's planted groups do.
bool cover_matches_groups(const std::vector<std::vector<size_t>>& cliques,
                          const std::vector<size_t>& groups);

/// FNV-1a over `bytes`, chained from `h`.
uint64_t fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ull);

}  // namespace mmbench
