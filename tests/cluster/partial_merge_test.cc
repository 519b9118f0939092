// The paper's partial/merge algorithm on one in-memory cell, run the way
// every caller runs it: through the engine (PipelineBuilder::RunInMemory).
// p partitions are p chunks of ceil(N/p) consecutive rows; shuffling the
// cell first gives the paper's random partitions.

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/metrics.h"
#include "cluster/partial.h"
#include "data/generator.h"
#include "stream/engine.h"

namespace pmkm {
namespace {

constexpr GridCellId kCell{0, 0};

KMeansConfig Partial(size_t k, uint64_t seed = 123) {
  KMeansConfig config;
  config.k = k;
  config.restarts = 3;
  config.seed = seed;
  return config;
}

MergeKMeansConfig Merge(size_t k) {
  MergeKMeansConfig config;
  config.k = k;
  return config;
}

// Runs `cell`, in the given row order, as `partitions` chunks on `cores`
// cores.
Result<StreamRunResult> RunCell(Dataset cell, const KMeansConfig& partial,
                                const MergeKMeansConfig& merge,
                                size_t partitions, size_t cores = 1) {
  const size_t chunk = std::max<size_t>(
      1, (cell.size() + partitions - 1) / partitions);
  GridBucket bucket;
  bucket.cell = kCell;
  bucket.points = std::move(cell);
  ResourceModel resources;
  resources.cores = cores;
  return PipelineBuilder()
      .WithPartialKMeans(partial)
      .WithMerge(merge)
      .WithResources(resources)
      .WithChunkPoints(chunk)
      .RunInMemory({std::move(bucket)});
}

// The paper's setup: random partitions of a shuffled cell, merge k = k.
Result<StreamRunResult> RunShuffled(const Dataset& cell, size_t k,
                                    size_t partitions, uint64_t seed = 123,
                                    size_t cores = 1) {
  Dataset shuffled = cell;
  Rng rng(seed);
  shuffled.Shuffle(&rng);
  return RunCell(std::move(shuffled), Partial(k, seed), Merge(k),
                 partitions, cores);
}

double Mass(const ClusteringModel& model) {
  double mass = 0.0;
  for (double w : model.weights) mass += w;
  return mass;
}

TEST(PartialMergeTest, ValidatesConfig) {
  Rng rng(0);
  const Dataset cell = GenerateMisrLikeCell(200, &rng);
  auto rejected = [&](const KMeansConfig& p, const MergeKMeansConfig& m) {
    return RunCell(cell, p, m, 2).status().IsInvalidArgument();
  };
  KMeansConfig no_restarts = Partial(4);
  no_restarts.restarts = 0;
  EXPECT_TRUE(rejected(Partial(0), Merge(4)));
  EXPECT_TRUE(rejected(no_restarts, Merge(4)));
  EXPECT_TRUE(rejected(Partial(4), Merge(0)));
}

TEST(PartialMergeTest, EmptyCellRejected) {
  EXPECT_TRUE(
      PipelineBuilder().RunInMemory({}).status().IsInvalidArgument());
  // A cell without points yields no chunk and so no model.
  auto result = RunCell(Dataset(3), Partial(4), Merge(4), 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cells.count(kCell), 0u);
}

TEST(PartialMergeTest, ProducesKCentroidsWithFullWeight) {
  Rng rng(1);
  const Dataset cell = GenerateMisrLikeCell(2000, &rng);
  auto result = RunShuffled(cell, 10, 5);
  ASSERT_TRUE(result.ok()) << result.status();
  const CellClustering& out = result->cells.at(kCell);
  EXPECT_EQ(out.model.k(), 10u);
  EXPECT_EQ(out.pooled_centroids, 50u);
  EXPECT_EQ(out.input_points, 2000u);
  EXPECT_NEAR(Mass(out.model), 2000.0, 1e-6);
  EXPECT_GE(out.merge_seconds, 0.0);
  EXPECT_GE(result->wall_seconds, out.merge_seconds);
}

TEST(PartialMergeTest, DeterministicForSeed) {
  Rng rng(2);
  const Dataset cell = GenerateMisrLikeCell(1200, &rng);
  auto a = RunShuffled(cell, 8, 4, 77);
  auto b = RunShuffled(cell, 8, 4, 77);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->cells.at(kCell).model.centroids,
            b->cells.at(kCell).model.centroids);
  EXPECT_EQ(a->cells.at(kCell).model.sse, b->cells.at(kCell).model.sse);
}

TEST(PartialMergeTest, ParallelMatchesSerialResult) {
  // Partial clones change wall time only, never the clustering: the chunk
  // → seed derivation is independent of which clone runs which chunk.
  Rng rng(3);
  const Dataset cell = GenerateMisrLikeCell(2000, &rng);
  auto serial = RunShuffled(cell, 8, 8, 5, /*cores=*/1);
  auto parallel = RunShuffled(cell, 8, 8, 5, /*cores=*/4);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial->plan.partial_clones, 1u);
  EXPECT_EQ(parallel->plan.partial_clones, 3u);
  EXPECT_EQ(serial->cells.at(kCell).model.centroids,
            parallel->cells.at(kCell).model.centroids);
  EXPECT_EQ(serial->cells.at(kCell).model.sse,
            parallel->cells.at(kCell).model.sse);
}

TEST(PartialMergeTest, RecoversWellSeparatedClusters) {
  // k-means++ in both steps recovers all six clusters for every shuffle
  // seed tried (200 of 200). The paper's random partial seeding with
  // heaviest-weight merge seeding does so for about 1 seed in 200: a
  // partial fit that merges two true clusters yields a heavy centroid
  // between them, and heaviest-k merge seeding picks it.
  Rng rng(4);
  std::vector<std::vector<double>> centers;
  Dataset cell =
      GenerateSeparatedClusters(3000, 4, 6, 150.0, 1.0, &rng, &centers);
  Rng shuffle(123);
  cell.Shuffle(&shuffle);
  KMeansConfig partial = Partial(6);
  partial.seeding = SeedingMethod::kKMeansPlusPlus;
  MergeKMeansConfig merge = Merge(6);
  merge.seeding = SeedingMethod::kKMeansPlusPlus;
  auto result = RunCell(std::move(cell), partial, merge, 6);
  ASSERT_TRUE(result.ok());
  const ClusteringModel& model = result->cells.at(kCell).model;
  for (const auto& truth : centers) {
    double best = 1e30;
    for (size_t j = 0; j < model.k(); ++j) {
      double d = 0.0;
      for (size_t dd = 0; dd < 4; ++dd) {
        const double diff = truth[dd] - model.centroids(j, dd);
        d += diff * diff;
      }
      best = std::min(best, d);
    }
    EXPECT_LT(best, 9.0);
  }
}

TEST(PartialMergeTest, MoreDistinctPartitionsThanPoints) {
  Rng rng(5);
  const Dataset cell = GenerateUniform(3, 2, 0.0, 1.0, &rng);
  auto result = RunShuffled(cell, 2, 10);
  ASSERT_TRUE(result.ok());
  // Three one-point chunks, each passed through as its own centroid.
  EXPECT_EQ(result->cells.at(kCell).pooled_centroids, 3u);
  EXPECT_NEAR(Mass(result->cells.at(kCell).model), 3.0, 1e-12);
}

TEST(PartialMergeTest, ContiguousStrategyUsesArrivalOrder) {
  // Unshuffled, partition j is rows [j·N/p, (j+1)·N/p) in arrival order,
  // clustered with seed tag j << 17 (cell {0,0}) and pooled in id order.
  Rng rng(6);
  const Dataset cell = GenerateMisrLikeCell(1000, &rng);
  auto result = RunCell(cell, Partial(5), Merge(5), 4);
  ASSERT_TRUE(result.ok());

  const PartialKMeans partial(Partial(5));
  WeightedDataset pooled(cell.dim());
  for (size_t j = 0; j < 4; ++j) {
    auto part =
        partial.Cluster(cell.Slice(j * 250, (j + 1) * 250), j << 17);
    ASSERT_TRUE(part.ok());
    pooled.AppendAll(part->centroids);
  }
  auto merged = MergeKMeans(Merge(5)).Merge(pooled);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(result->cells.at(kCell).model.centroids, merged->centroids);
  EXPECT_EQ(result->cells.at(kCell).model.weights, merged->weights);
  EXPECT_EQ(result->cells.at(kCell).model.sse, merged->sse);
}

TEST(PartialMergeTest, PartitionDiagnosticsFilled) {
  Rng rng(8);
  const Dataset cell = GenerateMisrLikeCell(1500, &rng);
  auto result = RunShuffled(cell, 6, 5);
  ASSERT_TRUE(result.ok());
  size_t partials = 0;
  for (const OperatorStats& op : result->operator_stats) {
    if (op.name.rfind("partial-kmeans", 0) != 0) continue;
    ++partials;
    EXPECT_EQ(op.rows_in, 1500u);
    EXPECT_EQ(op.rows_out, 5u * 6u);  // k weighted centroids per chunk
    EXPECT_EQ(op.kmeans_restarts, 5u * 3u);
    EXPECT_GE(op.kmeans_iterations, 5u);
    EXPECT_GT(op.wall_seconds, 0.0);
  }
  EXPECT_EQ(partials, 1u);
}

TEST(PartialMergeTest, MergeKCanDiffer) {
  Rng rng(10);
  Dataset cell = GenerateMisrLikeCell(800, &rng);
  auto result = RunCell(std::move(cell), Partial(10), Merge(3), 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cells.at(kCell).model.k(), 3u);
  EXPECT_EQ(result->cells.at(kCell).pooled_centroids, 40u);
}

TEST(PartialMergeTest, QualityOnRawDataIsReasonable) {
  // The paper's central quality claim, in miniature: for a large cell the
  // partial/merge model's error on the ORIGINAL points is within a small
  // factor of the serial model's error (and often better).
  Rng rng(11);
  const Dataset cell = GenerateMisrLikeCell(6000, &rng);
  auto pm = RunShuffled(cell, 20, 6);
  ASSERT_TRUE(pm.ok());
  KMeansConfig serial_config;
  serial_config.k = 20;
  serial_config.restarts = 3;
  auto serial = KMeans(serial_config).Fit(cell);
  ASSERT_TRUE(serial.ok());
  const double pm_on_raw = Sse(pm->cells.at(kCell).model.centroids, cell);
  EXPECT_LT(pm_on_raw, 2.0 * serial->sse);
}

}  // namespace
}  // namespace pmkm
