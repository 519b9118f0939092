#include "cluster/serialize.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cluster/kmeans.h"
#include "common/bytes.h"
#include "data/generator.h"
#include "data/io.h"

namespace pmkm {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_ser_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

ClusteringModel FitSample(bool with_assignments) {
  Rng rng(1);
  const Dataset cell = GenerateMisrLikeCell(500, &rng);
  KMeansConfig config;
  config.k = 7;
  config.restarts = 2;
  config.lloyd.track_assignments = with_assignments;
  auto model = KMeans(config).Fit(cell);
  PMKM_CHECK(model.ok());
  return std::move(model).value();
}

TEST_F(SerializeTest, RoundTripWithoutAssignments) {
  const ClusteringModel original = FitSample(false);
  const std::string path = Path("m.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->centroids, original.centroids);
  EXPECT_EQ(loaded->weights, original.weights);
  EXPECT_DOUBLE_EQ(loaded->sse, original.sse);
  EXPECT_DOUBLE_EQ(loaded->mse_per_point, original.mse_per_point);
  EXPECT_EQ(loaded->iterations, original.iterations);
  EXPECT_EQ(loaded->converged, original.converged);
  EXPECT_TRUE(loaded->assignments.empty());
}

TEST_F(SerializeTest, RoundTripWithAssignments) {
  const ClusteringModel original = FitSample(true);
  ASSERT_FALSE(original.assignments.empty());
  const std::string path = Path("ma.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->assignments, original.assignments);
}

TEST_F(SerializeTest, EmptyModelRejected) {
  ClusteringModel empty;
  EXPECT_TRUE(SaveModel(Path("e.pmkm"), empty).IsInvalidArgument());
}

TEST_F(SerializeTest, MissingFileFails) {
  EXPECT_TRUE(LoadModel(Path("ghost.pmkm")).status().IsIOError());
}

TEST_F(SerializeTest, GarbageFileRejected) {
  const std::string path = Path("junk.pmkm");
  std::ofstream(path) << "definitely not a model, but long enough to "
                         "clear the minimum size check....";
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, BitFlipDetectedByChecksum) {
  const ClusteringModel original = FitSample(false);
  const std::string path = Path("flip.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(60, std::ios::beg);
    char c;
    f.seekg(60, std::ios::beg);
    f.get(c);
    f.seekp(60, std::ios::beg);
    f.put(static_cast<char>(c ^ 0x01));
  }
  const auto st = LoadModel(path).status();
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST_F(SerializeTest, TruncationDetected) {
  const ClusteringModel original = FitSample(false);
  const std::string path = Path("trunc.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, LoadedModelPredictsIdentically) {
  Rng rng(2);
  const Dataset cell = GenerateMisrLikeCell(300, &rng);
  const ClusteringModel original = FitSample(false);
  const std::string path = Path("pred.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < cell.size(); ++i) {
    EXPECT_EQ(loaded->Predict(cell.Row(i)), original.Predict(cell.Row(i)));
  }
}

// Writes a model file whose header claims a k x dim shape (and, when
// `assignments` is set, that many assignments) over a tiny body, with a
// valid checksum, so only the shape checks stand between the header and
// an allocation sized from it.
void WriteCraftedModel(const std::string& path, uint64_t k, uint64_t dim,
                       const uint64_t* assignments = nullptr) {
  ByteWriter out;
  out.WriteU32(0x4d4b4d50);  // "PMKM"
  out.WriteU32(1);
  out.WriteU64(k);
  out.WriteU64(dim);
  out.WriteU32(assignments != nullptr ? 1 : 0);
  out.WriteU32(0);
  out.WriteF64(1.0);  // sse
  out.WriteF64(1.0);  // mse_per_point
  out.WriteU64(3);    // iterations
  out.WriteU32(1);    // converged
  out.WriteU32(0);
  if (assignments != nullptr) {
    out.WriteF64s(std::vector<double>(k * dim + k, 0.5));
    out.WriteU64(*assignments);
  }
  out.WriteU64(
      internal::Fnv1a64(out.bytes().data(), out.size(), internal::kFnvOffset));
  std::ofstream file(path, std::ios::binary);
  ASSERT_TRUE(WriteToStream(file, out.bytes()));
}

TEST_F(SerializeTest, HugeCentroidCountIsIOErrorNotAllocation) {
  const std::string path = Path("bomb.pmkm");
  WriteCraftedModel(path, /*k=*/uint64_t{1} << 40, /*dim=*/1);
  ASSERT_EQ(std::filesystem::file_size(path), 72u);
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, OverflowingShapeIsIOError) {
  // k * dim wraps to 0 in 64 bits.
  const std::string path = Path("overflow.pmkm");
  WriteCraftedModel(path, uint64_t{1} << 32, uint64_t{1} << 32);
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, HugeAssignmentCountIsIOError) {
  const std::string path = Path("assign.pmkm");
  const uint64_t n = uint64_t{1} << 40;
  WriteCraftedModel(path, /*k=*/2, /*dim=*/3, &n);
  EXPECT_TRUE(LoadModel(path).status().IsIOError());
}

TEST_F(SerializeTest, ResavingALoadedModelReproducesTheFile) {
  ClusteringModel original = FitSample(true);
  const std::string path = Path("a.pmkm");
  ASSERT_TRUE(SaveModel(path, original).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string again = Path("b.pmkm");
  ASSERT_TRUE(SaveModel(again, loaded.value()).ok());
  std::ifstream a(path, std::ios::binary), b(again, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(a), {}),
            std::string(std::istreambuf_iterator<char>(b), {}));
}

}  // namespace
}  // namespace pmkm
