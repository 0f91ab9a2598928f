#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "skyline/bbs.h"
#include "skyline/dominance.h"
#include "skyline/skyline.h"
#include "topk/brs.h"

namespace gir {
namespace {

// Brute-force skyline of D \ R.
std::vector<RecordId> BruteSkylineExcluding(const Dataset& data,
                                            const std::vector<RecordId>& r) {
  std::vector<bool> excluded(data.size(), false);
  for (RecordId id : r) excluded[id] = true;
  std::vector<RecordId> out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (excluded[i]) continue;
    bool dominated = false;
    for (size_t j = 0; j < data.size() && !dominated; ++j) {
      if (j == i || excluded[j]) continue;
      dominated = Dominates(data.Get(static_cast<RecordId>(j)),
                            data.Get(static_cast<RecordId>(i)));
    }
    if (!dominated) out.push_back(static_cast<RecordId>(i));
  }
  return out;
}

TEST(DominanceTest, Basics) {
  EXPECT_TRUE(Dominates(Vec{0.5, 0.5}, Vec{0.5, 0.4}));
  EXPECT_TRUE(Dominates(Vec{0.6, 0.5}, Vec{0.5, 0.4}));
  EXPECT_FALSE(Dominates(Vec{0.5, 0.5}, Vec{0.5, 0.5}));  // equal
  EXPECT_FALSE(Dominates(Vec{0.6, 0.3}, Vec{0.5, 0.4}));  // incomparable
  EXPECT_FALSE(Dominates(Vec{0.4, 0.4}, Vec{0.5, 0.5}));
}

TEST(SkylineSetTest, InsertEvictsDominated) {
  Dataset data = Dataset::FromRows(
      {{0.2, 0.8}, {0.8, 0.2}, {0.5, 0.5}, {0.9, 0.9}, {0.1, 0.1}});
  SkylineSet sl(&data);
  EXPECT_TRUE(sl.Insert(0));
  EXPECT_TRUE(sl.Insert(1));
  EXPECT_TRUE(sl.Insert(2));
  EXPECT_EQ(sl.size(), 3u);
  EXPECT_TRUE(sl.Insert(3));  // dominates everything
  EXPECT_EQ(sl.size(), 1u);
  EXPECT_FALSE(sl.Insert(4));  // dominated
  EXPECT_EQ(sl.members(), (std::vector<RecordId>{3}));
}

TEST(SkylineSetTest, DominatedByMember) {
  Dataset data = Dataset::FromRows({{0.7, 0.7}});
  SkylineSet sl(&data);
  sl.Insert(0);
  EXPECT_TRUE(sl.DominatedByMember(Vec{0.5, 0.5}));
  EXPECT_FALSE(sl.DominatedByMember(Vec{0.8, 0.5}));
  EXPECT_FALSE(sl.DominatedByMember(Vec{0.7, 0.7}));  // equal, not dominated
}

TEST(ComputeSkylineTest, MatchesBruteForce) {
  Rng rng(31);
  Dataset data = GenerateAnticorrelated(800, 3, rng);
  std::vector<RecordId> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<RecordId>(i);
  std::vector<RecordId> got = ComputeSkyline(data, all);
  std::sort(got.begin(), got.end());
  std::vector<RecordId> want = BruteSkylineExcluding(data, {});
  EXPECT_EQ(got, want);
}

struct BbsCase {
  const char* dataset;
  int dim;
  int k;
};

class BbsTest : public ::testing::TestWithParam<BbsCase> {};

TEST_P(BbsTest, ContinuationMatchesBruteForce) {
  const BbsCase& c = GetParam();
  Rng rng(71);
  Result<Dataset> data = GenerateByName(c.dataset, 1500, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&*data, &disk));
  LinearScoring scoring(c.dim);
  for (int trial = 0; trial < 3; ++trial) {
    Vec w(c.dim);
    for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.1, 1.0);
    Result<TopKResult> brs = RunBrs(tree, scoring, w, c.k);
    ASSERT_TRUE(brs.ok());
    SkylineResult sl = ContinueSkylineFromBrs(tree, scoring, w, *brs);
    std::vector<RecordId> want = BruteSkylineExcluding(*data, brs->result);
    EXPECT_EQ(sl.skyline, want)
        << c.dataset << " d=" << c.dim << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsTest,
    ::testing::Values(BbsCase{"IND", 2, 5}, BbsCase{"IND", 4, 20},
                      BbsCase{"COR", 3, 10}, BbsCase{"ANTI", 3, 10},
                      BbsCase{"ANTI", 5, 20}));

TEST(BbsTest, PrunesIo) {
  // On correlated data the skyline is tiny and BBS should read only a
  // small fraction of the tree.
  Rng rng(55);
  Dataset data = GenerateCorrelated(20000, 3, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(3);
  Vec w = {0.5, 0.6, 0.7};
  Result<TopKResult> brs = RunBrs(tree, scoring, w, 10);
  ASSERT_TRUE(brs.ok());
  disk.ResetStats();
  SkylineResult sl = ContinueSkylineFromBrs(tree, scoring, w, *brs);
  EXPECT_EQ(sl.io.reads, disk.stats().reads);
  EXPECT_LT(sl.io.reads, tree.node_count() / 2);
  EXPECT_FALSE(sl.skyline.empty());
}

}  // namespace
}  // namespace gir
