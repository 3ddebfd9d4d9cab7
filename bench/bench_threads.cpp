// Ablation A2: thread scaling. The paper's engine is "implemented with a
// multithreaded engine in C++ ... run on a single machine with 4 cores".
// We sweep the thread count for the refinement + validation phase (per-mode
// propagation parallelism) on a design-E-like workload.
//
// Each row also counts the heap allocations of one merge, through a
// replacement global operator new in this binary only (the library keeps
// the standard allocator). The bench exits 1 when a merge makes more than
// kMaxAllocsPerNode allocations per timing-graph node: relation walks are
// meant to allocate per walk, not per pin or per key.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <thread>
#include <tuple>

#include "merge/merger.h"
#include "obs/obs.h"
#include "timing/exceptions.h"
#include "timing/mode_graph.h"
#include "timing/relationships.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

/// Ceiling on one merge's heap allocations per timing-graph node. A merge
/// whose walks allocate per pin or per key makes about 25 per node at
/// MM_SCALE=0.005; per-walk arenas and flat tables make well under 2.
constexpr double kMaxAllocsPerNode = 4.0;

uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

int main(int argc, char** argv) {
  using namespace mm;
  using namespace mm::bench;

  const uint64_t seed = bench_seed(argc, argv);
  const netlist::Library lib = netlist::Library::builtin();

  gen::DesignParams dp;
  dp.seed = seed;
  dp.num_regs = static_cast<size_t>(1.6e6 * size_scale() / 4.0);
  if (dp.num_regs < 200) dp.num_regs = 200;
  dp.num_domains = 4;
  netlist::Design design = gen::generate_design(lib, dp);
  timing::TimingGraph graph(design);

  gen::ModeFamilyParams mp;
  mp.seed = seed;
  mp.num_modes = 5;  // design E: 5 modes -> 1 merged
  mp.target_groups = 1;
  std::vector<std::unique_ptr<sdc::Sdc>> modes;
  std::vector<const sdc::Sdc*> ptrs;
  for (const auto& gm : gen::generate_mode_family(dp, mp)) {
    modes.push_back(
        std::make_unique<sdc::Sdc>(sdc::parse_sdc(gm.sdc_text, design)));
  }
  for (const auto& m : modes) ptrs.push_back(m.get());

  std::printf("Ablation A2: thread scaling (design-E-like, %zu cells, 5 modes)\n",
              design.num_instances());

  // One member's endpoint-level walk, as data refinement's pass 1 and the
  // equivalence check run it.
  uint64_t allocs_per_walk = 0;
  {
    const timing::ModeGraph mode(graph, *ptrs[0]);
    const timing::CompiledExceptions exceptions(graph, *ptrs[0]);
    timing::PropagationOptions opts;
    opts.compute_arrivals = false;
    opts.analyze_hold = true;
    const uint64_t before = allocations();
    timing::Propagator prop(mode, exceptions);
    prop.run(opts);
    allocs_per_walk = allocations() - before;
  }
  std::printf("one member walk: %llu allocations (%zu nodes)\n",
              static_cast<unsigned long long>(allocs_per_walk),
              graph.num_nodes());
  std::printf("(host reports %u hardware thread(s); speedups need >1 core)\n",
              std::thread::hardware_concurrency());

  // The very first run pays one-time warm-up (page cache, allocator arenas,
  // lazily-built tables) that every later run reuses. Timing the serial
  // baseline cold and the multithreaded runs warm would conflate cache wins
  // with threading wins — so measure the serial run twice, report the cold
  // number separately, and compute thread speedups against the warm serial
  // baseline only.
  auto run_once = [&](size_t threads) {
    merge::MergeOptions options;
    options.num_threads = threads;
    const uint64_t before = allocations();
    Stopwatch timer;
    const merge::ValidatedMergeResult out =
        merge::merge_modes(graph, ptrs, options);
    return std::make_tuple(timer.elapsed_ms(), out.equivalence.signoff_safe(),
                           allocations() - before);
  };
  const auto [serial_cold_ms, cold_safe, cold_allocs] = run_once(1);
  (void)cold_allocs;
  std::printf("serial cold-cache baseline: %.2f ms%s\n", serial_cold_ms,
              cold_safe ? "" : "  [UNSAFE!]");
  std::printf("%8s %12s %10s %12s %14s\n", "threads", "merge(ms)", "speedup",
              "vs-cold", "allocs/merge");

  obs::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mm.bench/1");
  json.key("bench").value("threads");
  json.key("scale").value(size_scale());
  json.key("cells").value(design.num_instances());
  json.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.key("serial_cold_ms").value(serial_cold_ms);
  json.key("nodes").value(static_cast<uint64_t>(graph.num_nodes()));
  json.key("allocs_per_member_walk").value(allocs_per_walk);
  json.key("rows").begin_array();

  const double max_allocs =
      kMaxAllocsPerNode * static_cast<double>(graph.num_nodes());
  bool over_ceiling = false;
  double base = 0.0;
  for (size_t threads : {1, 2, 4, 8}) {
    const auto [ms, safe, allocs] = run_once(threads);
    if (base == 0.0) base = ms;  // warm serial baseline
    const bool over = static_cast<double>(allocs) > max_allocs;
    over_ceiling |= over;
    std::printf("%8zu %12.2f %9.2fx %11.2fx %14llu%s%s\n", threads, ms,
                base / ms, serial_cold_ms / ms,
                static_cast<unsigned long long>(allocs),
                safe ? "" : "  [UNSAFE!]", over ? "  [OVER CEILING]" : "");

    json.begin_object();
    json.key("threads").value(threads);
    json.key("merge_ms").value(ms);
    json.key("speedup").value(base / ms);
    json.key("speedup_vs_cold").value(serial_cold_ms / ms);
    json.key("signoff_safe").value(safe);
    json.key("allocs_per_merge").value(allocs);
    json.end_object();
  }

  json.end_array();
  json.key("stats").raw(obs::stats_json());
  json.end_object();
  std::ofstream("BENCH_threads.json") << json.str() << '\n';
  std::fprintf(stderr, "wrote BENCH_threads.json\n");
  if (over_ceiling) {
    std::fprintf(stderr,
                 "allocation ceiling exceeded: more than %.1f allocations "
                 "per timing-graph node (%.0f) in one merge\n",
                 kMaxAllocsPerNode, max_allocs);
    return 1;
  }
  return 0;
}
