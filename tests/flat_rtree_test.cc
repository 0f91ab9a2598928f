// Layout-equivalence property tests: the frozen FlatRTree must be
// indistinguishable from the mutable R*-tree it was frozen from — same
// structure, same RangeQuery answers — and its batched entry-score
// kernel must reproduce the per-entry Score/MaxScore of every node
// bitwise, on random IND/COR/ANTI datasets, both bulk-loaded and
// incrementally inserted, on every SIMD dispatch tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "index/rtree.h"
#include "topk/scoring.h"
#include "topk/tree_kernels.h"

namespace gir {
namespace {

Dataset MakeData(const std::string& dist, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Result<Dataset> data = GenerateByName(dist, n, d, rng);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

RTree BuildTree(const Dataset& data, DiskManager* disk, bool bulk) {
  if (bulk) return RTree::BulkLoad(&data, disk);
  RTree tree(&data, disk);
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<RecordId>(i));
  }
  return tree;
}

Vec Query(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

TEST(FlatRTreeTest, StructureMatchesSource) {
  for (bool bulk : {true, false}) {
    Dataset data = MakeData("IND", 1500, 3, 42);
    DiskManager disk;
    RTree tree = BuildTree(data, &disk, bulk);
    FlatRTree flat = FlatRTree::Freeze(tree);
    ASSERT_EQ(flat.node_count(), tree.node_count());
    EXPECT_EQ(flat.root(), tree.root());
    EXPECT_EQ(flat.height(), tree.height());
    EXPECT_EQ(flat.size(), tree.size());
    EXPECT_EQ(flat.Capacity(), tree.Capacity());
    for (size_t p = 0; p < tree.node_count(); ++p) {
      const RTreeNode& node = tree.PeekNode(static_cast<PageId>(p));
      FlatRTree::NodeView view = flat.PeekNode(static_cast<PageId>(p));
      ASSERT_EQ(view.count(), node.entries.size());
      EXPECT_EQ(view.is_leaf(), node.is_leaf);
      EXPECT_EQ(view.level(), node.level);
      for (size_t e = 0; e < node.entries.size(); ++e) {
        EXPECT_EQ(view.child(e), node.entries[e].child);
        for (size_t j = 0; j < data.dim(); ++j) {
          EXPECT_EQ(view.lo(j)[e], node.entries[e].mbb.lo[j]);
          EXPECT_EQ(view.hi(j)[e], node.entries[e].mbb.hi[j]);
        }
      }
    }
  }
}

TEST(FlatRTreeTest, RangeQueryMatchesSource) {
  Rng boxes(7);
  for (const char* dist : {"IND", "COR", "ANTI"}) {
    for (bool bulk : {true, false}) {
      Dataset data = MakeData(dist, 1200, 3, 99);
      DiskManager disk;
      RTree tree = BuildTree(data, &disk, bulk);
      FlatRTree flat = FlatRTree::Freeze(tree);
      for (int q = 0; q < 8; ++q) {
        Mbb box = Mbb::EmptyBox(3);
        for (size_t j = 0; j < 3; ++j) {
          double a = boxes.Uniform();
          double b = boxes.Uniform();
          box.lo[j] = std::min(a, b);
          box.hi[j] = std::max(a, b);
        }
        std::vector<RecordId> expect = tree.RangeQuery(box);
        std::vector<RecordId> got = flat.RangeQuery(box);
        std::sort(expect.begin(), expect.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect) << dist << " bulk=" << bulk << " q=" << q;
      }
    }
  }
}

// The contract that lets every query-path traversal run on the frozen
// image alone: for every node, the batched SoA kernel yields exactly the
// per-entry scores of the scalar formulation — Score() of the record on
// leaves, MaxScore() of the entry box on internal nodes — bit for bit,
// so heap order, pruning and I/O are those of the paper's algorithms.
// Checked on every dispatch tier the machine supports.
TEST(FlatRTreeEquivalenceTest, EntryScoresMatchScoreAndMaxScore) {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (simd::Tier t : {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (static_cast<int>(t) <= static_cast<int>(simd::DetectedTier())) {
      tiers.push_back(t);
    }
  }
  // Restores the startup tier however the test exits.
  struct TierRestore {
    simd::Tier saved = simd::ActiveTier();
    ~TierRestore() { simd::ForceTier(saved); }
  } restore;
  for (const char* dist : {"IND", "COR", "ANTI"}) {
    for (size_t d : {2, 3, 5}) {
      Dataset data = MakeData(dist, 1200, d, 1000 + d);
      for (bool bulk : {true, false}) {
        DiskManager disk;
        RTree tree = BuildTree(data, &disk, bulk);
        FlatRTree flat = FlatRTree::Freeze(tree);
        Rng qrng(2014 + d);
        Vec w = Query(qrng, d);
        for (const char* name : {"Linear", "Polynomial", "Mixed"}) {
          std::unique_ptr<ScoringFunction> scoring = MakeScoring(name, d);
          for (simd::Tier tier : tiers) {
            simd::ForceTier(tier);
            SCOPED_TRACE(std::string(dist) + " d=" + std::to_string(d) +
                         (bulk ? " bulk " : " insert ") + name + " " +
                         simd::TierName(tier));
            ScoreBuffer buf;
            for (size_t p = 0; p < flat.node_count(); ++p) {
              const FlatRTree::NodeView view =
                  flat.PeekNode(static_cast<PageId>(p));
              ComputeEntryScores(*scoring, data, view, w, &buf);
              ASSERT_EQ(buf.scores.size(), view.count());
              for (size_t e = 0; e < view.count(); ++e) {
                const double expect =
                    view.is_leaf()
                        ? scoring->Score(data.Get(view.child(e)), w)
                        : scoring->MaxScore(view.EntryMbb(e), w);
                ASSERT_EQ(buf.scores[e], expect)
                    << "node " << p << " entry " << e;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gir
