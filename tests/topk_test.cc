#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "topk/brs.h"
#include "topk/scoring.h"

namespace gir {
namespace {

// Reference top-k: sort all records by score.
std::vector<RecordId> LinearScanTopK(const Dataset& data,
                                     const ScoringFunction& scoring,
                                     VecView w, size_t k) {
  std::vector<RecordId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](RecordId a, RecordId b) {
    return scoring.Score(data.Get(a), w) > scoring.Score(data.Get(b), w);
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

TEST(ScoringTest, LinearScore) {
  LinearScoring s(3);
  Vec p = {0.5, 0.2, 0.1};
  Vec w = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(s.Score(p, w), 0.5 + 0.4 + 0.3);
  EXPECT_EQ(s.Transform(p), p);
}

TEST(ScoringTest, MaxScoreAtTopCorner) {
  LinearScoring s(2);
  Mbb box{{0.1, 0.2}, {0.5, 0.9}};
  Vec w = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(s.MaxScore(box, w), 1.4);
}

TEST(ScoringTest, TransformsAreMonotone) {
  for (const char* name : {"Linear", "Polynomial", "Mixed"}) {
    auto s = MakeScoring(name, 6);
    for (size_t i = 0; i < 6; ++i) {
      double prev = s->TransformDim(i, 0.0);
      for (double x = 0.05; x <= 1.0; x += 0.05) {
        double cur = s->TransformDim(i, x);
        EXPECT_GT(cur, prev) << name << " dim " << i << " x " << x;
        prev = cur;
      }
    }
  }
}

TEST(ScoringTest, MaxScoreBoundsAllBoxPoints) {
  Rng rng(3);
  for (const char* name : {"Linear", "Polynomial", "Mixed"}) {
    auto s = MakeScoring(name, 4);
    Mbb box{{0.2, 0.1, 0.3, 0.0}, {0.6, 0.8, 0.5, 0.7}};
    Vec w = {0.3, 0.9, 0.1, 0.5};
    double bound = s->MaxScore(box, w);
    for (int trial = 0; trial < 200; ++trial) {
      Vec p(4);
      for (int j = 0; j < 4; ++j) p[j] = rng.Uniform(box.lo[j], box.hi[j]);
      EXPECT_LE(s->Score(p, w), bound + 1e-12) << name;
    }
  }
}

TEST(ScoringTest, FactoryNames) {
  EXPECT_EQ(MakeScoring("Linear", 2)->name(), "Linear");
  EXPECT_EQ(MakeScoring("Polynomial", 2)->name(), "Polynomial");
  EXPECT_EQ(MakeScoring("Mixed", 2)->name(), "Mixed");
}

struct BrsCase {
  const char* dataset;
  int dim;
  int k;
};

class BrsTest : public ::testing::TestWithParam<BrsCase> {};

TEST_P(BrsTest, MatchesLinearScan) {
  const BrsCase& c = GetParam();
  Rng rng(42);
  Result<Dataset> data = GenerateByName(c.dataset, 3000, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&*data, &disk));
  LinearScoring scoring(c.dim);
  for (int trial = 0; trial < 5; ++trial) {
    Vec w(c.dim);
    for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.05, 1.0);
    Result<TopKResult> got = RunBrs(tree, scoring, w, c.k);
    ASSERT_TRUE(got.ok());
    std::vector<RecordId> want = LinearScanTopK(*data, scoring, w, c.k);
    ASSERT_EQ(got->result.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      // Scores must agree even if ties permute ids.
      EXPECT_NEAR(scoring.Score(data->Get(got->result[i]), w),
                  scoring.Score(data->Get(want[i]), w), 1e-12);
    }
    // Scores must be in decreasing order.
    for (size_t i = 1; i < got->scores.size(); ++i) {
      EXPECT_GE(got->scores[i - 1], got->scores[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrsTest,
    ::testing::Values(BrsCase{"IND", 2, 10}, BrsCase{"IND", 4, 20},
                      BrsCase{"COR", 3, 5}, BrsCase{"ANTI", 4, 20},
                      BrsCase{"ANTI", 6, 50}));

TEST(BrsTest, NonLinearScoringMatchesScan) {
  Rng rng(17);
  Dataset data = GenerateIndependent(2000, 4, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  for (const char* name : {"Polynomial", "Mixed"}) {
    auto scoring = MakeScoring(name, 4);
    Vec w = {0.4, 0.6, 0.5, 0.7};
    Result<TopKResult> got = RunBrs(tree, *scoring, w, 15);
    ASSERT_TRUE(got.ok());
    std::vector<RecordId> want = LinearScanTopK(data, *scoring, w, 15);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(scoring->Score(data.Get(got->result[i]), w),
                  scoring->Score(data.Get(want[i]), w), 1e-12)
          << name;
    }
  }
}

TEST(BrsTest, EncounteredDisjointFromResult) {
  Rng rng(5);
  Dataset data = GenerateIndependent(1000, 3, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(3);
  Vec w = {0.5, 0.5, 0.5};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 20);
  ASSERT_TRUE(r.ok());
  for (RecordId t : r->encountered) {
    EXPECT_EQ(std::count(r->result.begin(), r->result.end(), t), 0);
  }
}

TEST(BrsTest, PendingNodesWereNeverRead) {
  // Every pending node's maxscore must be <= the k-th result score
  // (BRS terminates exactly then) — the I/O-optimality witness.
  Rng rng(6);
  Dataset data = GenerateAnticorrelated(3000, 3, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(3);
  Vec w = {0.9, 0.4, 0.7};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 10);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.size(), 10u);
  double kth = r->scores.back();
  for (const PendingNode& pn : r->pending) {
    EXPECT_LE(pn.maxscore, kth + 1e-12);
  }
}

TEST(BrsTest, SmallDatasetReturnsAll) {
  Dataset data = Dataset::FromRows({{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.1}});
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(2);
  Vec w = {1.0, 1.0};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.size(), 3u);
  EXPECT_TRUE(r->pending.empty());
  EXPECT_TRUE(r->encountered.empty());
}

TEST(BrsTest, RejectsBadArguments) {
  Dataset data = Dataset::FromRows({{0.1, 0.2}});
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(2);
  EXPECT_FALSE(RunBrs(tree, scoring, Vec{0.5, 0.5}, 0).ok());
  EXPECT_FALSE(RunBrs(tree, scoring, Vec{0.5}, 1).ok());
}

TEST(BrsTest, RetainedStateIsSufficientToContinue) {
  // The GIR Phase-2 algorithms rely on BRS's leftovers (encountered
  // records + pending nodes) covering *all* of D \ R. Verify by
  // continuing the search from the retained state: the next m best
  // records must match a fresh top-(k+m) linear scan.
  Rng rng(77);
  Dataset data = GenerateIndependent(4000, 3, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  LinearScoring scoring(3);
  Vec w = {0.8, 0.3, 0.6};
  const size_t k = 10;
  const size_t m = 25;
  Result<TopKResult> first = RunBrs(tree, scoring, w, k);
  ASSERT_TRUE(first.ok());

  // Resume: a max-heap over retained records and nodes.
  struct E {
    double key;
    bool is_node;
    int32_t id;
  };
  auto less = [](const E& a, const E& b) { return a.key < b.key; };
  std::vector<E> heap;
  for (RecordId r : first->encountered) {
    heap.push_back(E{scoring.Score(data.Get(r), w), false, r});
  }
  for (const PendingNode& pn : first->pending) {
    heap.push_back(E{pn.maxscore, true, static_cast<int32_t>(pn.page)});
  }
  std::make_heap(heap.begin(), heap.end(), less);
  std::vector<RecordId> continued;
  while (!heap.empty() && continued.size() < m) {
    std::pop_heap(heap.begin(), heap.end(), less);
    E top = heap.back();
    heap.pop_back();
    if (!top.is_node) {
      continued.push_back(top.id);
      continue;
    }
    const FlatRTree::NodeView node =
        tree.ReadNode(static_cast<PageId>(top.id));
    for (size_t e = 0; e < node.count(); ++e) {
      const int32_t child = node.child(e);
      if (node.is_leaf()) {
        heap.push_back(E{scoring.Score(data.Get(child), w), false, child});
      } else {
        heap.push_back(E{scoring.MaxScore(node.EntryMbb(e), w), true, child});
      }
      std::push_heap(heap.begin(), heap.end(), less);
    }
  }
  std::vector<RecordId> want = LinearScanTopK(data, scoring, w, k + m);
  ASSERT_EQ(continued.size(), m);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(scoring.Score(data.Get(continued[i]), w),
                scoring.Score(data.Get(want[k + i]), w), 1e-12)
        << "rank " << k + i;
  }
}

TEST(BrsTest, IoCountedOnlyForReadNodes) {
  Rng rng(21);
  Dataset data = GenerateIndependent(5000, 2, rng);
  DiskManager disk;
  FlatRTree tree = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  disk.ResetStats();
  LinearScoring scoring(2);
  Vec w = {0.5, 0.5};
  Result<TopKResult> r = RunBrs(tree, scoring, w, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->io.reads, disk.stats().reads);
  EXPECT_GT(r->io.reads, 0u);
  // BRS is I/O-light: it should touch far fewer pages than exist.
  EXPECT_LT(r->io.reads, tree.node_count() / 4);
}

}  // namespace
}  // namespace gir
