// EngineOptions / EngineFlags / PipelineBuilder: the unified front door
// to the streamed partial/merge pipeline.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>

#include "common/flags.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pmkm {
namespace {

GridBucket MakeBucket(int id, size_t n, uint64_t seed) {
  Rng rng(seed);
  GridBucket bucket;
  bucket.cell = GridCellId{id, id};
  bucket.points = GenerateMisrLikeCell(n, &rng);
  return bucket;
}

TEST(EngineFlagsTest, RegistersAndConverts) {
  EngineFlags flags;
  FlagParser parser;
  flags.Register(&parser);
  const char* argv[] = {"prog",          "--k=7",
                        "--restarts=3",  "--memory-kib=64",
                        "--cores=5",     "--failure_policy=skip",
                        "--kernel=scalar"};
  ASSERT_TRUE(parser.Parse(7, const_cast<char**>(argv)).ok());
  auto options = flags.ToOptions();
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->partial.k, 7u);
  EXPECT_EQ(options->partial.restarts, 3u);
  EXPECT_EQ(options->merge.k, 7u);
  EXPECT_EQ(options->resources.memory_bytes_per_operator, 64u << 10);
  EXPECT_EQ(options->resources.cores, 5u);
  EXPECT_EQ(options->exec.failure_policy,
            FailurePolicy::kSkipAndContinue);
  EXPECT_EQ(options->kernel, KernelKind::kScalar);
}

TEST(EngineFlagsTest, RejectsBadValues) {
  {
    EngineFlags flags;
    flags.k = 0;
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    EngineFlags flags;
    flags.failure_policy = "shrug";
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
  {
    EngineFlags flags;
    flags.kernel = "mmx";
    EXPECT_TRUE(flags.ToOptions().status().IsInvalidArgument());
  }
}

TEST(PipelineBuilderTest, RunInMemoryIsDeterministic) {
  KMeansConfig partial;
  partial.k = 5;
  partial.restarts = 2;
  partial.seed = 9;
  MergeKMeansConfig merge;
  merge.k = 5;
  ResourceModel resources;
  resources.cores = 2;
  resources.memory_bytes_per_operator = 6 * 8 * 4 * 150;

  PipelineBuilder builder;
  builder.WithPartialKMeans(partial).WithMerge(merge).WithResources(
      resources);
  auto first = builder.RunInMemory({MakeBucket(1, 600, 2)});
  auto second = builder.RunInMemory({MakeBucket(1, 600, 2)});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const auto& a = first->cells.at(GridCellId{1, 1});
  const auto& b = second->cells.at(GridCellId{1, 1});
  EXPECT_EQ(a.model.centroids, b.model.centroids);
  EXPECT_EQ(a.model.sse, b.model.sse);
}

TEST(PipelineBuilderTest, ResultIdenticalAcrossKernels) {
  // --kernel is a pure speed knob: the streamed pipeline's output is
  // bitwise identical under every available kernel.
  KMeansConfig partial;
  partial.k = 6;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 6;
  ResourceModel resources;
  resources.cores = 3;

  auto Run = [&](KernelKind kind) {
    return PipelineBuilder()
        .WithPartialKMeans(partial)
        .WithMerge(merge)
        .WithResources(resources)
        .WithKernel(kind)
        .RunInMemory({MakeBucket(2, 1500, 3)});
  };
  auto ref = Run(KernelKind::kScalar);
  ASSERT_TRUE(ref.ok()) << ref.status();
  for (const DistanceKernel* kernel : AvailableKernels()) {
    SCOPED_TRACE(kernel->name());
    auto alt = Run(kernel->kind());
    ASSERT_TRUE(alt.ok()) << alt.status();
    const auto& a = ref->cells.at(GridCellId{2, 2});
    const auto& b = alt->cells.at(GridCellId{2, 2});
    EXPECT_EQ(a.model.centroids, b.model.centroids);
    EXPECT_EQ(a.model.sse, b.model.sse);
  }
}

TEST(PipelineBuilderTest, OperatorStatsNameActiveKernel) {
  auto result = PipelineBuilder()
                    .WithKernel(KernelKind::kScalar)
                    .RunInMemory({MakeBucket(3, 800, 4)});
  ASSERT_TRUE(result.ok()) << result.status();
  bool partial_seen = false, merge_seen = false;
  for (const OperatorStats& stats : result->operator_stats) {
    if (stats.name.rfind("partial-kmeans", 0) == 0) {
      partial_seen = true;
      EXPECT_EQ(stats.kernel, "scalar");
    } else if (stats.name == "merge-kmeans") {
      merge_seen = true;
      EXPECT_EQ(stats.kernel, "scalar");
    }
  }
  EXPECT_TRUE(partial_seen);
  EXPECT_TRUE(merge_seen);
}

TEST(PipelineBuilderTest, WithMetricsAndTraceWireSinks) {
  MetricsRegistry registry;
  TraceRecorder trace;
  auto result = PipelineBuilder()
                    .WithMetrics(&registry)
                    .WithTrace(&trace)
                    .RunInMemory({MakeBucket(4, 500, 5)});
  ASSERT_TRUE(result.ok()) << result.status();
  // The queue gauges only exist when the metrics sink was attached.
  const std::string json = registry.ToJsonString();
  EXPECT_NE(json.find("queue.points.depth"), std::string::npos);
  EXPECT_GT(trace.size(), 0u);
}

TEST(PipelineBuilderTest, ChunkOverrideKeepsQueueRule) {
  // A forced chunk size larger than the memory budget must clamp the
  // queue to the floor of 2 instead of buffering 2·clones giant chunks.
  ResourceModel resources;
  resources.cores = 5;
  resources.memory_bytes_per_operator = 6 * 8 * 4 * 100;  // 100-pt chunks
  KMeansConfig partial;
  partial.k = 4;
  partial.restarts = 1;
  MergeKMeansConfig merge;
  merge.k = 4;
  auto result = PipelineBuilder()
                    .WithPartialKMeans(partial)
                    .WithMerge(merge)
                    .WithResources(resources)
                    .WithChunkPoints(2000)
                    .RunInMemory({MakeBucket(5, 4000, 6)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan.chunk_points, 2000u);
  EXPECT_EQ(result->plan.queue_capacity,
            PlanQueueCapacity(result->plan.partial_clones, 2000, 6,
                              resources.memory_bytes_per_operator));
}

TEST(PipelineBuilderTest, ModelBitwiseEqualAcrossCoreCounts) {
  // Clone count is a speed knob only: 1, 2 and 4 cores (1, 1 and 3
  // partial clones) over the same six chunks give the same model bytes.
  KMeansConfig partial;
  partial.k = 7;
  partial.restarts = 2;
  MergeKMeansConfig merge;
  merge.k = 7;
  auto Run = [&](size_t cores) {
    ResourceModel resources;
    resources.cores = cores;
    return PipelineBuilder()
        .WithPartialKMeans(partial)
        .WithMerge(merge)
        .WithResources(resources)
        .WithChunkPoints(500)
        .RunInMemory({MakeBucket(7, 3000, 8)});
  };
  auto ref = Run(1);
  ASSERT_TRUE(ref.ok()) << ref.status();
  const ClusteringModel& a = ref->cells.at(GridCellId{7, 7}).model;
  EXPECT_EQ(ref->cells.at(GridCellId{7, 7}).pooled_centroids, 6u * 7u);
  for (size_t cores : {2u, 4u}) {
    SCOPED_TRACE(cores);
    auto alt = Run(cores);
    ASSERT_TRUE(alt.ok()) << alt.status();
    EXPECT_EQ(alt->plan.partial_clones, cores - 1);
    const ClusteringModel& b = alt->cells.at(GridCellId{7, 7}).model;
    EXPECT_EQ(a.centroids, b.centroids);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.sse),
              std::bit_cast<uint64_t>(b.sse));
  }
}

TEST(PipelineBuilderTest, ExplainNamesKernel) {
  // Explain goes through bucket files; write one.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pmkm_engine_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const GridBucket bucket = MakeBucket(6, 300, 7);
  const std::string path = (dir / "cell.pmkb").string();
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
  auto text = PipelineBuilder()
                  .WithKernel(KernelKind::kScalar)
                  .Explain({path});
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("kernel=scalar"), std::string::npos);
}

}  // namespace
}  // namespace pmkm
