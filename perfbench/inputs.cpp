#include "inputs.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench/workloads.h"
#include "gen/corner_gen.h"
#include "gen/design_gen.h"
#include "gen/mode_gen.h"
#include "netlist/verilog.h"
#include "sdc/parser.h"
#include "util/rng.h"

namespace mmbench {

namespace {

using mm::util::Rng;

const mm::netlist::Library& library() {
  static const mm::netlist::Library lib = mm::netlist::Library::builtin();
  return lib;
}

// The paper's Table 5 designs A-F (bench/workloads.h) at a fixed 1/100 of
// its cell counts; MM_SCALE does not apply here.
constexpr double kTable5Scale = 0.01;
// Per-mode false paths per deck: the generator default for flat families,
// and the value bench_mcmm_scale uses for corner families.
constexpr size_t kFlatModeFps = mm::gen::ModeFamilyParams{}.mode_fps;
constexpr size_t kMcmmModeFps = 8;

DesignText flat_design(const mm::gen::DesignParams& dp,
                       const mm::gen::ModeFamilyParams& mp) {
  DesignText t;
  t.name = dp.name;
  t.verilog = mm::netlist::write_verilog(
      mm::gen::generate_design(library(), dp));
  t.corner_names = {"default"};
  for (const mm::gen::GeneratedMode& gm :
       mm::gen::generate_mode_family(dp, mp)) {
    t.mode_names.push_back(gm.name);
    t.decks.push_back({gm.sdc_text});
    t.groups.push_back(gm.group);
  }
  return t;
}

Inputs table5(uint64_t seed) {
  Inputs in;
  const std::vector<mm::bench::TableRow>& rows = mm::bench::table_rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    const mm::bench::TableRow& row = rows[r];
    mm::gen::DesignParams dp;
    dp.name = std::string("design_") + row.name;
    dp.comb_per_reg = 3;
    dp.num_regs = std::max<size_t>(
        50, static_cast<size_t>(row.paper_mcells * 1e6 * kTable5Scale / 4.0));
    dp.num_domains = 4;
    dp.seed = Rng::mix(seed, r);
    mm::gen::ModeFamilyParams mp;
    mp.num_modes = row.num_modes;
    mp.target_groups = row.target_groups;
    mp.seed = Rng::mix(seed, 100 + r);
    in.designs.push_back(flat_design(dp, mp));
  }
  return in;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Fill in.toggled and in.victims for design in.edit_design: per mode, one
/// of its per-mode false paths (the generator writes those last, the same
/// line in every corner deck) is picked by the seed and removed from every
/// corner deck.
void make_edits(Inputs& in, size_t mode_fps, uint64_t seed, size_t rounds) {
  const DesignText& t = in.designs[in.edit_design];
  Rng rng(Rng::mix(seed, 3));
  for (const std::vector<std::string>& decks : t.decks) {
    const std::vector<std::string> base = lines_of(decks[0]);
    std::vector<size_t> candidates;
    for (size_t i = base.size() >= mode_fps ? base.size() - mode_fps : 0;
         i < base.size(); ++i) {
      if (base[i].rfind("set_false_path", 0) == 0) candidates.push_back(i);
    }
    if (candidates.empty()) {
      throw std::runtime_error("edit stream: deck has no per-mode false path");
    }
    const size_t drop = candidates[rng.below(candidates.size())];
    std::vector<std::string> row;
    for (const std::string& deck : decks) {
      const std::vector<std::string> lines = lines_of(deck);
      if (lines.size() != base.size() || lines[drop] != base[drop]) {
        throw std::runtime_error("edit stream: corner decks diverge");
      }
      std::string out;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (i != drop) out += lines[i] + "\n";
      }
      row.push_back(std::move(out));
    }
    in.toggled.push_back(std::move(row));
  }
  std::vector<size_t> order(t.decks.size());
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    in.victims.insert(in.victims.end(), order.begin(), order.end());
  }
}

Inputs mcmm(uint64_t seed) {
  mm::gen::DesignParams dp;
  dp.name = "mcmm";
  dp.num_regs = 250;  // ~1k cells
  dp.num_domains = 4;
  dp.seed = Rng::mix(seed, 1);
  mm::gen::ModeFamilyParams mp;
  mp.num_modes = 16;
  mp.target_groups = 4;
  mp.group_mcps = 6;
  mp.mode_fps = kMcmmModeFps;
  mp.seed = Rng::mix(seed, 2);
  mm::gen::CornerFamilyParams cp;
  cp.num_corners = 4;
  const mm::gen::CornerFamily fam =
      mm::gen::generate_corner_family(dp, mp, cp);

  Inputs in;
  DesignText t;
  t.name = dp.name;
  t.verilog = mm::netlist::write_verilog(
      mm::gen::generate_design(library(), dp));
  for (const mm::gen::CornerSpec& c : fam.corners) {
    t.corner_names.push_back(c.name);
  }
  for (size_t m = 0; m < fam.modes.size(); ++m) {
    t.mode_names.push_back(fam.modes[m].name);
    t.groups.push_back(fam.modes[m].group);
    t.decks.push_back(fam.sdc_texts[m]);
  }
  in.designs.push_back(std::move(t));
  return in;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "table5" || name == "mcmm";
}

Inputs make_inputs(const std::string& workload, uint64_t seed,
                   size_t edit_rounds) {
  Inputs in = workload == "table5" ? table5(seed) : mcmm(seed);
  in.workload = workload;
  make_edits(in, workload == "mcmm" ? kMcmmModeFps : kFlatModeFps, seed,
             edit_rounds);
  return in;
}

std::vector<const mm::sdc::Sdc*> Loaded::corner_decks(size_t corner) const {
  std::vector<const mm::sdc::Sdc*> out;
  out.reserve(decks.size());
  for (const auto& row : decks) out.push_back(row[corner].get());
  return out;
}

Loaded load(const DesignText& text, Tracer* tracer) {
  Loaded l;
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(*tracer, "netlist.read_verilog");
    l.design = std::make_unique<mm::netlist::Design>(
        mm::netlist::read_verilog(text.verilog, library()));
  }
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(*tracer, "timing.graph_build");
    l.graph = std::make_unique<mm::timing::TimingGraph>(*l.design);
  }
  for (const auto& row : text.decks) {
    std::vector<std::unique_ptr<mm::sdc::Sdc>> parsed;
    for (const std::string& deck : row) {
      std::optional<Tracer::Scope> span;
      if (tracer) span.emplace(*tracer, "sdc.parse");
      parsed.push_back(std::make_unique<mm::sdc::Sdc>(
          mm::sdc::parse_sdc(deck, *l.design)));
    }
    l.decks.push_back(std::move(parsed));
  }
  return l;
}

uint64_t sdc_bytes(const DesignText& text) {
  uint64_t n = 0;
  for (const auto& row : text.decks) {
    for (const std::string& deck : row) n += deck.size();
  }
  return n;
}

bool cover_matches_groups(const std::vector<std::vector<size_t>>& cliques,
                          const std::vector<size_t>& groups) {
  std::set<std::set<size_t>> planted_sets;
  std::map<size_t, std::set<size_t>> by_group;
  for (size_t m = 0; m < groups.size(); ++m) by_group[groups[m]].insert(m);
  for (auto& [g, members] : by_group) planted_sets.insert(members);
  std::set<std::set<size_t>> cover_sets;
  size_t covered = 0;
  for (const auto& c : cliques) {
    cover_sets.insert(std::set<size_t>(c.begin(), c.end()));
    covered += c.size();
  }
  return covered == groups.size() && cover_sets == planted_sets;
}

uint64_t fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace mmbench
