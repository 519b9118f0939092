// Property suites, part 3: the partitioning-strategy design space (paper
// §6), swept parametrically. Every strategy is a row order of the cell,
// cut by the engine's chunker into p chunks of ceil(N/p) rows.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cluster/metrics.h"
#include "data/generator.h"
#include "data/slicing.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

// ---------------------------------------------------------------------------
// S1: every slicing strategy yields a complete partitioning and a valid
// end-to-end model.

enum class Strategy { kRandom, kContiguous, kSpatial, kStripes };

using StrategyParam = std::tuple<Strategy, int>;

class StrategyProperty : public ::testing::TestWithParam<StrategyParam> {};

const char* Name(Strategy s) {
  switch (s) {
    case Strategy::kRandom:
      return "random";
    case Strategy::kContiguous:
      return "contiguous";
    case Strategy::kSpatial:
      return "spatial";
    case Strategy::kStripes:
      return "stripes";
  }
  return "?";
}

// `cell`'s rows in the strategy's order: shuffled, arrival order, grouped
// by spatial subcell (ceil(sqrt(p))-sided grid on coordinates 0/1), or
// stably sorted along coordinate 0.
Dataset Ordered(const Dataset& cell, Strategy strategy, int p, Rng* rng) {
  Dataset out(cell.dim());
  switch (strategy) {
    case Strategy::kRandom:
      out = cell;
      out.Shuffle(rng);
      break;
    case Strategy::kContiguous:
      out = cell;
      break;
    case Strategy::kSpatial: {
      const auto side = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(p))));
      const auto parts = SplitSpatialGrid(cell, side);
      for (const Dataset& part : *parts) out.AppendAll(part);
      break;
    }
    case Strategy::kStripes:
      out = std::move(SplitStripes(cell, 1, 0)->front());
      break;
  }
  return out;
}

TEST_P(StrategyProperty, EndToEndInvariants) {
  const auto [strategy, p] = GetParam();
  Rng rng(static_cast<uint64_t>(p) * 997 +
          static_cast<uint64_t>(strategy));
  const Dataset cell = GenerateMisrLikeCell(3000, &rng);

  GridBucket bucket;
  bucket.points = Ordered(cell, strategy, p, &rng);
  KMeansConfig partial;
  partial.k = 8;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 8;
  ResourceModel resources;
  resources.cores = 1;
  auto run = PipelineBuilder()
                 .WithPartialKMeans(partial)
                 .WithMerge(merge)
                 .WithResources(resources)
                 .WithChunkPoints(static_cast<size_t>((3000 + p - 1) / p))
                 .RunInMemory({std::move(bucket)});
  ASSERT_TRUE(run.ok()) << Name(strategy) << " p=" << p << ": "
                        << run.status();
  const CellClustering& result = run->cells.at(GridCellId{});

  // Mass conservation holds under every slicing, and every order is a
  // permutation of the cell: all points reach a partition.
  double mass = 0.0;
  for (double w : result.model.weights) mass += w;
  EXPECT_NEAR(mass, 3000.0, 1e-6);
  EXPECT_EQ(result.input_points, 3000u);

  // Every strategy yields at most p partitions of k centroids each.
  EXPECT_GE(result.pooled_centroids, 1u);
  EXPECT_LE(result.pooled_centroids, static_cast<size_t>(p) * 8);

  // The model must beat the trivial single-mean model on raw points.
  Dataset mean_model(cell.dim());
  mean_model.Append(cell.Mean());
  EXPECT_LT(Sse(result.model.centroids, cell), Sse(mean_model, cell));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyProperty,
    ::testing::Combine(::testing::Values(Strategy::kRandom,
                                         Strategy::kContiguous,
                                         Strategy::kSpatial,
                                         Strategy::kStripes),
                       ::testing::Values(2, 6, 12)),
    [](const ::testing::TestParamInfo<StrategyParam>& info) {
      return std::string(Name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pmkm
