#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "index/mbb.h"
#include "index/rtree.h"

namespace gir {
namespace {

TEST(MbbTest, ExpandAndArea) {
  Mbb box = Mbb::EmptyBox(2);
  EXPECT_TRUE(box.IsEmpty());
  box.ExpandTo(Vec{0.2, 0.4});
  box.ExpandTo(Vec{0.6, 0.1});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_DOUBLE_EQ(box.Area(), 0.4 * 0.3);
  EXPECT_DOUBLE_EQ(box.Margin(), 0.4 + 0.3);
}

TEST(MbbTest, OverlapAndContainment) {
  Mbb a{{0.0, 0.0}, {0.5, 0.5}};
  Mbb b{{0.25, 0.25}, {0.75, 0.75}};
  Mbb c{{0.6, 0.6}, {0.9, 0.9}};
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 0.0625);
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.ContainsPoint(Vec{0.1, 0.1}));
  EXPECT_FALSE(a.ContainsPoint(Vec{0.6, 0.1}));
  Mbb inner{{0.1, 0.1}, {0.2, 0.2}};
  EXPECT_TRUE(a.ContainsMbb(inner));
  EXPECT_FALSE(inner.ContainsMbb(a));
}

TEST(MbbTest, EnlargementAndMaxDot) {
  Mbb a{{0.0, 0.0}, {0.5, 0.5}};
  Mbb b{{0.5, 0.5}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 1.0 - 0.25);
  Vec w = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(a.MaxDot(w), 2.0 * 0.5 + 1.0 * 0.5);
  // Negative weights pick the lower corner.
  Vec wn = {-1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.MaxDot(wn), 0.0 + 0.5);
}

TEST(MbbTest, PointBox) {
  Mbb p = Mbb::OfPoint(Vec{0.3, 0.7});
  EXPECT_DOUBLE_EQ(p.Area(), 0.0);
  EXPECT_TRUE(p.ContainsPoint(Vec{0.3, 0.7}));
  EXPECT_EQ(p.TopCorner(), (Vec{0.3, 0.7}));
}

class RTreeBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeBuildTest, BulkLoadValidates) {
  const int d = GetParam();
  Rng rng(d);
  Dataset data = GenerateIndependent(5000, d, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  EXPECT_EQ(tree.size(), 5000u);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  EXPECT_GE(tree.height(), 2u);
}

TEST_P(RTreeBuildTest, InsertValidates) {
  const int d = GetParam();
  Rng rng(100 + d);
  Dataset data = GenerateIndependent(2000, d, rng);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  EXPECT_EQ(tree.size(), 2000u);
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
}

INSTANTIATE_TEST_SUITE_P(Dims, RTreeBuildTest, ::testing::Values(2, 4, 6));

TEST(RTreeTest, RangeQueryMatchesLinearScan) {
  Rng rng(9);
  Dataset data = GenerateIndependent(3000, 3, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  for (int trial = 0; trial < 20; ++trial) {
    Mbb box = Mbb::EmptyBox(3);
    Vec a = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Vec b = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    box.ExpandTo(a);
    box.ExpandTo(b);
    std::vector<RecordId> got = tree.RangeQuery(box);
    std::sort(got.begin(), got.end());
    std::vector<RecordId> want;
    for (size_t i = 0; i < data.size(); ++i) {
      if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
        want.push_back(static_cast<RecordId>(i));
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(RTreeTest, RangeQueryAfterInserts) {
  Rng rng(10);
  Dataset data = GenerateAnticorrelated(1500, 2, rng);
  DiskManager disk;
  RTree tree(&data, &disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  Mbb box{{0.25, 0.25}, {0.75, 0.75}};
  std::vector<RecordId> got = tree.RangeQuery(box);
  std::sort(got.begin(), got.end());
  std::vector<RecordId> want;
  for (size_t i = 0; i < data.size(); ++i) {
    if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
      want.push_back(static_cast<RecordId>(i));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(RTreeTest, CapacityMatchesPageBudget) {
  Rng rng(11);
  Dataset data = GenerateIndependent(100, 4, rng);
  DiskManager disk(4096);
  RTree tree(&data, &disk);
  // entry = 2*4*8 + 4 = 68 bytes; (4096-16)/68 = 60.
  EXPECT_EQ(tree.Capacity(), 60u);
}

// Page reads are charged on the frozen image, the only tree queries
// traverse: ReadNode and FetchPage cost one read each, PeekNode none.
TEST(FlatRTreeIoTest, ReadNodeChargesIo) {
  Rng rng(12);
  Dataset data = GenerateIndependent(500, 2, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  disk.ResetStats();
  tree.ReadNode(tree.root());
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_DOUBLE_EQ(disk.ReadMillis(), 10.0);
  tree.PeekNode(tree.root());
  EXPECT_EQ(disk.stats().reads, 1u);
  ASSERT_TRUE(tree.FetchPage(tree.root()).ok());
  EXPECT_EQ(disk.stats().reads, 2u);
}

TEST(RTreeTest, EmptyTreeValidates) {
  Dataset data(2);
  DiskManager disk;
  RTree tree(&data, &disk);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.height(), 0u);
}

TEST(RTreeTest, BulkLoadUsesAllRecordsOnce) {
  Rng rng(13);
  Dataset data = GenerateCorrelated(4000, 5, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  Mbb everything{Vec(5, 0.0), Vec(5, 1.0)};
  std::vector<RecordId> all = tree.RangeQuery(everything);
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 4000u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<RecordId>(i));
  }
}

}  // namespace
}  // namespace gir
