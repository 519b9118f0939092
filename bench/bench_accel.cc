// Experiment A6 — the "improved search mechanism" the paper deliberately
// skipped (§4): Hamerly triangle-inequality bounds vs the plain Lloyd
// scan. Quality is compared as final SSE within 1e-6 relative (the two
// iterations are not bitwise-identical and may stop after different
// iteration counts); time and the fraction of distance computations
// skipped are the payoff.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "cluster/hamerly.h"
#include "common/stopwatch.h"

namespace pmkm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  ExperimentGrid grid;
  FlagParser parser;
  grid.Register(&parser);
  const Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  PMKM_CHECK_OK(st);
  grid.Finalize();

  PrintBanner("Ablation A6",
              "plain Lloyd vs Hamerly-accelerated iteration",
              grid);
  std::cout << "        N |    lloyd(ms) |  hamerly(ms) | speed-up | "
               "skip rate | SSE 1e-6 rel\n";
  std::cout << "----------+--------------+--------------+----------+-----"
               "------+-----------\n";

  std::vector<int64_t> sizes = grid.sizes;
  std::sort(sizes.begin(), sizes.end());
  for (int64_t n : sizes) {
    const Dataset cell = MakeCell(n, grid, 0);
    const WeightedDataset data = WeightedDataset::FromUnweighted(cell);
    Rng seed_rng(1234);
    auto seeds = SelectSeeds(data, static_cast<size_t>(grid.k),
                             SeedingMethod::kRandom, &seed_rng);
    PMKM_CHECK(seeds.ok()) << seeds.status();

    LloydConfig config;
    Rng r1(1);
    const Stopwatch lw;
    auto lloyd = RunWeightedLloyd(data, *seeds, config, &r1);
    const double lloyd_ms = lw.ElapsedMillis();
    PMKM_CHECK(lloyd.ok());

    Rng r2(1);
    HamerlyStats stats;
    const Stopwatch hw;
    auto hamerly = RunHamerlyLloyd(data, *seeds, config, &r2, &stats);
    const double hamerly_ms = hw.ElapsedMillis();
    PMKM_CHECK(hamerly.ok());

    const double total_points = static_cast<double>(
        stats.bound_skips + stats.full_scans);
    const bool match =
        std::abs(hamerly->sse - lloyd->sse) <=
        1e-6 * (1.0 + lloyd->sse);
    std::cout << FmtInt(n, 9) << " | " << Fmt(lloyd_ms, 12) << " | "
              << Fmt(hamerly_ms, 12) << " | "
              << Fmt(lloyd_ms / std::max(hamerly_ms, 1e-9), 7, 2)
              << "x | "
              << Fmt(total_points > 0
                         ? 100.0 * stats.bound_skips / total_points
                         : 0.0,
                     8, 1)
              << "% | " << (match ? "    within" : "   OUTSIDE") << "\n";
  }
  std::cout << "\nReading: 'within' means the final SSE matches Lloyd's "
               "to 1e-6 relative\n(not bitwise; iteration counts may "
               "differ). The skip rate and speed-up\ngrow with N as "
               "clusters stabilize early and bounds stay tight.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pmkm

int main(int argc, char** argv) { return pmkm::bench::Main(argc, argv); }
