// Experiment A2 — partition-count and slicing-strategy sweep. The paper
// fixes p ∈ {5, 10} and lists "different 'slicing' strategies" as future
// work (§6); this harness explores both axes: p from 2 to 32, random vs
// contiguous (salami) vs spatial slicing.
//
// Every strategy is a row order of the cell; the engine's chunker then
// cuts that order into p equal partitions of ceil(N/p) rows.

#include <cmath>
#include <iostream>
#include <string_view>

#include "bench/bench_util.h"
#include "data/slicing.h"

namespace pmkm {
namespace bench {
namespace {

// `cell`'s rows in the order `strategy` slices them: shuffled (random),
// as they arrived (contiguous), grouped by subcell of a ceil(sqrt(p))-
// sided grid on coordinates 0/1 (spatial), or stably sorted along
// coordinate 0 (stripes).
Dataset Reorder(const Dataset& cell, std::string_view strategy, int64_t p,
                uint64_t seed) {
  if (strategy == "random") return Shuffled(cell, seed);
  if (strategy == "stripes") return SplitStripes(cell, 1, 0)->front();
  if (strategy == "spatial") {
    const auto parts = SplitSpatialGrid(
        cell, static_cast<size_t>(std::ceil(std::sqrt(p))));
    Dataset out(cell.dim());
    for (const Dataset& part : *parts) out.AppendAll(part);
    return out;
  }
  return cell;
}

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  int64_t n = 50000;
  FlagParser parser;
  grid.Register(&parser);
  parser.AddInt("n", &n, "cell size");
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();
  if (grid.quick) n = std::min<int64_t>(n, 10000);

  PrintBanner("Ablation A2",
              "partition count p and slicing strategy (random vs salami)",
              grid);
  std::cout << "    p | strategy   |  partial(ms) |   merge(ms) |     "
               "E_pm |   SSE(raw)\n";
  std::cout << "------+------------+--------------+-------------+---------"
               "-+-----------\n";

  for (int64_t p : {2, 5, 10, 20, 32}) {
    for (const char* strategy : {"random", "contiguous", "spatial",
                                 "stripes"}) {
      double partial_ms = 0.0, merge_ms = 0.0, e_pm = 0.0, raw = 0.0;
      for (int64_t v = 0; v < grid.versions; ++v) {
        const Dataset cell = MakeCell(n, grid, v);
        KMeansConfig partial;
        partial.k = static_cast<size_t>(grid.k);
        partial.restarts = static_cast<size_t>(grid.restarts);
        partial.seed = 6000 + static_cast<uint64_t>(v);
        MergeKMeansConfig merge;
        merge.k = partial.k;
        const EngineRun run = RunOnEngine(
            Reorder(cell, strategy, p, 31 + static_cast<uint64_t>(v)),
            partial, merge, static_cast<size_t>(p));
        partial_ms += run.stats.partial_ms;
        merge_ms += run.stats.merge_ms;
        e_pm += run.model.sse;
        raw += run.stats.sse_raw;
      }
      const double inv = 1.0 / static_cast<double>(grid.versions);
      std::string name = strategy;
      name.resize(10, ' ');
      std::cout << FmtInt(p, 5) << " | " << name << " | "
                << Fmt(partial_ms * inv, 12) << " | "
                << Fmt(merge_ms * inv, 11) << " | " << Fmt(e_pm * inv, 8, 0)
                << " | " << Fmt(raw * inv, 10, 0) << "\n";
    }
  }
  std::cout << "\nReading: partial time falls with p (smaller chunks "
               "converge faster) while the\nmerge cost grows with k·p. "
               "random = paper's mostly-overlapping chunks; contiguous\n"
               "= arrival-order salami; spatial/stripes = the paper's §6 "
               "future-work slicers that\ncut along data axes (every "
               "partition is still ceil(N/p) rows, but each\nper-chunk "
               "clustering sees only a sub-region of attribute space).\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
