#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cluster/kernels/kernel.h"
#include "cluster/metrics.h"
#include "common/stopwatch.h"
#include "obs/json.h"
#include "stream/engine.h"

namespace pmkm {
namespace bench {

void ExperimentGrid::Register(FlagParser* parser) {
  parser->AddInt("k", &k, "number of clusters (paper: 40)")
      .AddInt("restarts", &restarts, "random seed sets R (paper: 10)")
      .AddInt("versions", &versions,
              "independent data versions per size (paper: 5)")
      .AddInt("max-n", &max_n, "drop sweep sizes above this (0 = keep all)")
      .AddBool("quick", &quick,
               "fast sanity configuration (small sizes, R=3, 1 version)");
}

void ExperimentGrid::Finalize() {
  if (quick) {
    sizes = {250, 2500, 12500};
    restarts = std::min<int64_t>(restarts, 3);
    versions = 1;
  }
  if (max_n > 0) {
    std::erase_if(sizes, [&](int64_t n) { return n > max_n; });
  }
}

Dataset MakeCell(int64_t n, const ExperimentGrid& grid, int64_t version) {
  // One master stream per (size, version): every algorithm sees the exact
  // same cell, like the paper's shared on-disk grid buckets.
  Rng rng(grid.data_seed ^ (static_cast<uint64_t>(n) * 0x51ed2701u) ^
          (static_cast<uint64_t>(version) << 32));
  MisrCellSpec spec;
  spec.dim = static_cast<size_t>(grid.dim);
  return GenerateMisrLikeCell(static_cast<size_t>(n), &rng, spec);
}

RunStats RunSerial(const Dataset& cell, const ExperimentGrid& grid,
                   uint64_t seed) {
  KMeansConfig config;
  config.k = static_cast<size_t>(grid.k);
  config.restarts = static_cast<size_t>(grid.restarts);
  config.seed = seed;
  const Stopwatch watch;
  auto model = KMeans(config).Fit(cell);
  PMKM_CHECK(model.ok()) << model.status();
  RunStats stats;
  stats.total_ms = watch.ElapsedMillis();
  stats.min_mse = model->sse;
  stats.sse_raw = model->sse;
  stats.iterations = static_cast<double>(model->iterations);
  return stats;
}

EngineRun RunOnEngine(const Dataset& cell, const KMeansConfig& partial,
                      const MergeKMeansConfig& merge, size_t splits) {
  PMKM_CHECK(splits >= 1);
  GridBucket bucket;
  bucket.cell = GridCellId{0, 0};
  bucket.points = cell;
  ResourceModel resources;
  resources.cores = 1;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithResources(resources)
                    .WithKernel(DefaultKernel().kind())
                    .WithChunkPoints((cell.size() + splits - 1) / splits)
                    .RunInMemory({std::move(bucket)});
  PMKM_CHECK(result.ok()) << result.status();
  const CellClustering& clustering = result->cells.at(GridCellId{0, 0});
  EngineRun run;
  run.model = clustering.model;
  for (const OperatorStats& op : result->operator_stats) {
    if (op.name.rfind("partial-kmeans", 0) == 0) {
      run.stats.partial_ms =
          std::max(run.stats.partial_ms, op.wall_seconds * 1e3);
    }
  }
  run.stats.merge_ms = clustering.merge_seconds * 1e3;
  run.stats.total_ms = result->wall_seconds * 1e3;
  run.stats.min_mse = run.model.sse;  // E_pm
  run.stats.e_pm = run.model.sse;
  run.stats.sse_raw = Sse(run.model.centroids, cell);
  run.stats.iterations = static_cast<double>(run.model.iterations);
  return run;
}

Dataset Shuffled(const Dataset& cell, uint64_t seed) {
  Dataset out = cell;
  Rng rng(seed);
  out.Shuffle(&rng);
  return out;
}

EngineRun RunPartialMerge(const Dataset& cell, const ExperimentGrid& grid,
                          size_t splits, uint64_t seed) {
  KMeansConfig partial;
  partial.k = static_cast<size_t>(grid.k);
  partial.restarts = static_cast<size_t>(grid.restarts);
  partial.seed = seed;
  MergeKMeansConfig merge;
  merge.k = partial.k;
  return RunOnEngine(Shuffled(cell, seed ^ 0xabcdef), partial, merge,
                     splits);
}

RunStats Average(const std::vector<RunStats>& runs) {
  RunStats avg;
  if (runs.empty()) return avg;
  bool all_pm = true;
  double e_pm = 0.0;
  for (const RunStats& r : runs) {
    all_pm = all_pm && r.e_pm.has_value();
    e_pm += r.e_pm.value_or(0.0);
    avg.partial_ms += r.partial_ms;
    avg.merge_ms += r.merge_ms;
    avg.total_ms += r.total_ms;
    avg.min_mse += r.min_mse;
    avg.sse_raw += r.sse_raw;
    avg.iterations += r.iterations;
  }
  const double n = static_cast<double>(runs.size());
  avg.partial_ms /= n;
  avg.merge_ms /= n;
  avg.total_ms /= n;
  avg.min_mse /= n;
  avg.sse_raw /= n;
  avg.iterations /= n;
  if (all_pm) avg.e_pm = e_pm / n;
  return avg;
}

std::string Fmt(double v, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

std::string FmtInt(int64_t v, int width) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*lld", width,
                static_cast<long long>(v));
  return buf;
}

void PrintBanner(const std::string& experiment_id,
                 const std::string& description,
                 const ExperimentGrid& grid) {
  std::cout << "==========================================================="
               "=====================\n";
  std::cout << experiment_id << ": " << description << "\n";
  std::cout << "Nittel, Leung & Braverman, \"Scaling Clustering Algorithms "
               "for Massive Data\n"
               "Sets using Data Streams\" — k=" << grid.k
            << ", R=" << grid.restarts << ", D=" << grid.dim
            << ", versions=" << grid.versions << "\n";
  std::cout << "==========================================================="
               "=====================\n";
}

Status WriteBenchJson(const std::string& path,
                      const std::string& benchmark,
                      const RunStats& stats) {
  JsonValue doc = JsonValue::Object();
  if (std::ifstream in(path); in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    // A missing or unparseable file just starts a fresh document.
    if (auto parsed = JsonValue::Parse(buf.str());
        parsed.ok() && parsed->is_object()) {
      doc = std::move(parsed).value();
    }
  }
  JsonValue entry = JsonValue::Object();
  entry.Set("wall_s", stats.total_ms * 1e-3);
  entry.Set("t_partial_s", stats.partial_ms * 1e-3);
  entry.Set("t_merge_s", stats.merge_ms * 1e-3);
  entry.Set("min_mse", stats.min_mse);
  entry.Set("sse_raw", stats.sse_raw);
  if (stats.e_pm.has_value()) entry.Set("e_pm", *stats.e_pm);
  doc.Set(benchmark, std::move(entry));
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(2) << "\n";
  if (!out.good()) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace bench
}  // namespace pmkm
