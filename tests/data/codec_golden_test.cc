// Golden byte vectors for every on-disk and checkpoint format: model files
// (.pmkm), grid buckets (.pmkb, bulk and streamed), the run journal
// (.pmkj header + one record frame) and the checkpoint payloads that the
// journal and the serve model set carry. The serve hello/frame goldens
// live in tests/serve/protocol_test.cc.
//
// The inputs are hand-built (no fitting) so the expected bytes can be
// read off the format comments: every integer little-endian, every double
// its IEEE-754 bit pattern in little-endian byte order. These vectors pin
// the formats across codec refactors; a changed byte here is a format
// change and needs a version bump.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/serialize.h"
#include "data/io.h"
#include "data/manifest.h"
#include "stream/checkpoint.h"

namespace pmkm {
namespace {

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

class CodecGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pmkm_golden_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

// k = 2 centroids in 2-D with exactly representable values.
ClusteringModel SmallModel() {
  ClusteringModel model;
  model.centroids = Dataset::FromFlat(2, {1.5, -2.0, 0.25, 8.0}).value();
  model.weights = {3.0, 5.0};
  model.sse = 1.25;
  model.mse_per_point = 0.125;
  model.iterations = 7;
  model.converged = true;
  return model;
}

// Shared hex fragments: the 2x2 centroids and the two weights, stored the
// same way by model files and checkpoint payloads.
#define CENTROIDS_HEX                                           \
  "000000000000f83f" "00000000000000c0" /* 1.5, -2.0 */        \
  "000000000000d03f" "0000000000002040" /* 0.25, 8.0 */
#define WEIGHTS_HEX "0000000000000840" "0000000000001440" /* 3, 5 */

TEST_F(CodecGoldenTest, ModelFileWithoutAssignments) {
  const std::string path = Path("m.pmkm");
  ASSERT_TRUE(SaveModel(path, SmallModel()).ok());
  EXPECT_EQ(Hex(FileBytes(path)),
            "504d4b4d" "01000000"                  // magic "PMKM", version
            "0200000000000000" "0200000000000000"  // k, dim
            "00000000" "00000000"                  // flags, pad
            "000000000000f43f" "000000000000c03f"  // sse 1.25, mse 0.125
            "0700000000000000" "01000000" "00000000"  // iterations, conv, pad
            CENTROIDS_HEX WEIGHTS_HEX
            "19eb0f6e560b444a");                   // fnv1a-64 trailer
}

TEST_F(CodecGoldenTest, ModelFileWithAssignments) {
  ClusteringModel model = SmallModel();
  model.assignments = {0, 1, 1};
  const std::string path = Path("ma.pmkm");
  ASSERT_TRUE(SaveModel(path, model).ok());
  EXPECT_EQ(Hex(FileBytes(path)),
            "504d4b4d" "01000000"
            "0200000000000000" "0200000000000000"
            "01000000" "00000000"                  // flags: has assignments
            "000000000000f43f" "000000000000c03f"
            "0700000000000000" "01000000" "00000000"
            CENTROIDS_HEX WEIGHTS_HEX
            "0300000000000000"                     // n = 3
            "00000000" "01000000" "01000000"       // assignments
            "3bd5e4a866ebeb9d");
}

// Three 2-D points in cell (3, -4).
const std::vector<double> kBucketValues = {1.0, 2.0, -0.5, 4.0, 3.0, 0.0};

#define BUCKET_HEX                                                     \
  "504d4b42" "01000000" "02000000"        /* magic "PMKB", ver, dim */ \
  "03000000" "fcffffff" "00000000"        /* lat 3, lon -4, pad */     \
  "0300000000000000"                      /* count */                  \
  "000000000000f03f" "0000000000000040"   /* (1, 2) */                 \
  "000000000000e0bf" "0000000000001040"   /* (-0.5, 4) */              \
  "0000000000000840" "0000000000000000"   /* (3, 0) */                 \
  "9d3a2f503880b750"                      /* fnv1a-64 over payload */

TEST_F(CodecGoldenTest, GridBucketFile) {
  GridBucket bucket;
  bucket.cell = GridCellId{3, -4};
  bucket.points = Dataset::FromFlat(2, kBucketValues).value();
  const std::string path = Path("b.pmkb");
  ASSERT_TRUE(WriteGridBucket(path, bucket).ok());
  EXPECT_EQ(Hex(FileBytes(path)), BUCKET_HEX);
}

TEST_F(CodecGoldenTest, StreamedGridBucketFileMatchesBulk) {
  const std::string path = Path("s.pmkb");
  auto writer = GridBucketWriter::Open(path, GridCellId{3, -4}, 2);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->AppendAll(Dataset::FromFlat(2, kBucketValues).value())
                  .ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(Hex(FileBytes(path)), BUCKET_HEX);
}

TEST_F(CodecGoldenTest, JournalHeaderAndOneFrame) {
  const std::string path = Path("journal.pmkj");
  {
    auto writer = JournalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->Append(2, std::vector<uint8_t>{0xAA, 0xBB, 0xCC})
                    .ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(Hex(FileBytes(path)),
            "504d4b4a" "01000000"                  // magic "PMKJ", version
            "03000000" "02000000"                  // payload_len, type
            "0100000000000000"                     // seq 1
            "aabbcc"                               // payload
            "03538f8a");                           // crc32c(type|seq|payload)
}

TEST_F(CodecGoldenTest, CellCompletePayload) {
  CellClustering cell;
  cell.cell = GridCellId{-1, 2};
  cell.model = SmallModel();
  cell.input_points = 100;
  cell.pooled_centroids = 6;
  cell.merge_seconds = 0.5;
  EXPECT_EQ(Hex(EncodeCellComplete(cell)),
            "01000000"                             // payload version
            "ffffffff" "02000000"                  // lat -1, lon 2
            "6400000000000000" "0600000000000000"  // input, pooled
            "000000000000e03f"                     // merge_seconds 0.5
            "0200000000000000" "0200000000000000"  // dim, rows
            CENTROIDS_HEX
            "0200000000000000" WEIGHTS_HEX         // weight count, weights
            "000000000000f43f" "000000000000c03f"  // sse, mse
            "0700000000000000" "01000000");        // iterations, converged
}

TEST_F(CodecGoldenTest, PartialStatePayload) {
  IncrementalMergeState state;
  state.running =
      WeightedDataset::Create(
          Dataset::FromFlat(2, {1.5, -2.0, 0.25, 8.0}).value(), {3.0, 5.0})
          .value();
  state.partitions_merged = 4;
  state.last_sse = 1.25;
  state.last_iterations = 9;
  EXPECT_EQ(Hex(EncodePartialState(GridCellId{5, -6}, state)),
            "01000000"                             // payload version
            "05000000" "faffffff"                  // lat 5, lon -6
            "0400000000000000"                     // partitions merged
            "000000000000f43f"                     // last_sse 1.25
            "0900000000000000"                     // last_iterations
            "0200000000000000" "0200000000000000"  // dim, rows
            CENTROIDS_HEX
            "0200000000000000" WEIGHTS_HEX);
}

#undef CENTROIDS_HEX
#undef WEIGHTS_HEX
#undef BUCKET_HEX

}  // namespace
}  // namespace pmkm
