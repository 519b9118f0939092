// Quickstart: cluster one grid cell with partial/merge k-means.
//
//   $ ./build/examples/quickstart [--n=20000] [--k=40] [--splits=10]
//
// Generates a MISR-like 6-attribute cell, clusters it with the paper's
// algorithm (partial k-means per chunk, weighted merge) on the stream
// engine, and prints the quality/time summary plus the heaviest
// centroids.

#include <algorithm>
#include <iostream>
#include <numeric>

#include "cluster/metrics.h"
#include "common/flags.h"
#include "data/generator.h"
#include "stream/engine.h"

int main(int argc, char** argv) {
  int64_t n = 20000;
  int64_t k = 40;
  int64_t splits = 10;
  int64_t restarts = 10;
  pmkm::FlagParser parser;
  parser.AddInt("n", &n, "points in the cell")
      .AddInt("k", &k, "clusters")
      .AddInt("splits", &splits, "memory-sized partitions")
      .AddInt("restarts", &restarts, "random seed sets per partition");
  const pmkm::Status st = parser.Parse(argc, argv);
  if (st.IsCancelled()) return 0;
  if (!st.ok() || n < 1 || splits < 1) {
    std::cerr << st << "\n" << parser.Usage(argv[0]);
    return 1;
  }

  // 1. A synthetic 1°×1° cell: N points, 6 correlated radiance-like
  //    attributes (what one MISR grid bucket looks like). The generator
  //    emits points in random order.
  pmkm::Rng rng(7);
  pmkm::GridBucket bucket;  // cell {0, 0}
  bucket.points = pmkm::GenerateMisrLikeCell(static_cast<size_t>(n), &rng);
  const pmkm::Dataset cell = bucket.points;
  std::cout << "cell: " << cell.size() << " points x " << cell.dim()
            << " attributes\n";

  // 2. Configure the paper's algorithm: k-means on each of `splits`
  //    chunks of the cell (best of R restarts), then a weighted merge
  //    seeded from the heaviest centroids.
  pmkm::KMeansConfig partial;
  partial.k = static_cast<size_t>(k);
  partial.restarts = static_cast<size_t>(restarts);
  pmkm::MergeKMeansConfig merge;
  merge.k = partial.k;

  auto result = pmkm::PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithChunkPoints(static_cast<size_t>((n + splits - 1) /
                                                         splits))
                    .RunInMemory({std::move(bucket)});
  if (!result.ok()) {
    std::cerr << "clustering failed: " << result.status() << "\n";
    return 1;
  }

  // 3. Inspect the model.
  const pmkm::CellClustering& clustering = result->cells.begin()->second;
  const pmkm::ClusteringModel& model = clustering.model;
  std::cout << "k = " << model.k() << " centroids from "
            << clustering.pooled_centroids << " pooled partial centroids ("
            << result->plan.partial_clones << " partial clone(s))\n";
  std::cout << "run: " << result->wall_seconds * 1e3
            << " ms, merge: " << clustering.merge_seconds * 1e3 << " ms\n";
  std::cout << "E_pm (merge objective)  = " << model.sse << "\n";
  std::cout << "SSE on raw points       = "
            << pmkm::Sse(model.centroids, cell) << "\n";
  std::cout << "mean sq. error / point  = "
            << pmkm::MsePerPoint(model.centroids, cell) << "\n";

  // 4. The five heaviest clusters (most of the cell's mass).
  std::vector<size_t> order(model.k());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return model.weights[a] > model.weights[b];
  });
  std::cout << "\nheaviest clusters:\n";
  for (size_t i = 0; i < std::min<size_t>(5, order.size()); ++i) {
    const size_t j = order[i];
    std::cout << "  #" << j << " weight=" << model.weights[j]
              << " centroid=[";
    for (size_t d = 0; d < model.dim(); ++d) {
      std::cout << (d > 0 ? ", " : "") << model.centroids(j, d);
    }
    std::cout << "]\n";
  }

  // 5. Classify a new measurement against the model.
  const pmkm::Dataset probe = pmkm::GenerateMisrLikeCell(1, &rng);
  std::cout << "\nnew point assigned to cluster "
            << model.Predict(probe.Row(0)) << "\n";
  return 0;
}
