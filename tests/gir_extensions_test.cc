// Extensions beyond the tests in gir_methods_test: the footnote-7
// Phase-1 tightening, the STB baseline, the paper's Figure 3 worked
// example, and the FP incident-star data structure in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "gir/fpnd.h"
#include "gir/phase1.h"
#include "gir/sensitivity.h"

namespace gir {
namespace {

// ---------- Paper Figure 3: the worked Phase-1 example ----------
TEST(PaperFigure3Test, Phase1HalfplanesMatchThePaper) {
  // Records p1..p4 with the exact attributes of Figure 3(a).
  Dataset data = Dataset::FromRows({{0.54, 0.50},   // p1
                                    {0.50, 0.48},   // p2
                                    {0.52, 0.35},   // p3
                                    {0.40, 0.40}}); // p4
  LinearScoring scoring(2);
  Vec q = {0.4, 0.6};
  // Scores of Figure 3(a).
  EXPECT_NEAR(scoring.Score(data.Get(0), q), 0.516, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(1), q), 0.488, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(2), q), 0.418, 1e-12);
  EXPECT_NEAR(scoring.Score(data.Get(3), q), 0.400, 1e-12);

  GirRegion region(2, q, {0, 1, 2, 3});
  AddPhase1Constraints(data, scoring, {0, 1, 2, 3}, &region);
  ASSERT_EQ(region.constraints().size(), 3u);
  // (p1-p2)·q' >= 0  =>  0.04 w1 + 0.02 w2 >= 0
  EXPECT_NEAR(region.constraints()[0].normal[0], 0.04, 1e-12);
  EXPECT_NEAR(region.constraints()[0].normal[1], 0.02, 1e-12);
  // (p2-p3)·q' >= 0  =>  -0.02 w1 + 0.13 w2 >= 0
  EXPECT_NEAR(region.constraints()[1].normal[0], -0.02, 1e-12);
  EXPECT_NEAR(region.constraints()[1].normal[1], 0.13, 1e-12);
  // (p3-p4)·q' >= 0  =>  0.12 w1 - 0.05 w2 >= 0
  EXPECT_NEAR(region.constraints()[2].normal[0], 0.12, 1e-12);
  EXPECT_NEAR(region.constraints()[2].normal[1], -0.05, 1e-12);
  // The original query satisfies all three strictly.
  EXPECT_TRUE(region.Contains(q));
}

// ---------- Footnote-7 Phase-1 tightening ----------
struct TightenCase {
  const char* dataset;
  int dim;
  int k;
};
class TighteningTest : public ::testing::TestWithParam<TightenCase> {};

TEST_P(TighteningTest, SameRegionFewerOrEqualReads) {
  const TightenCase& c = GetParam();
  Rng rng(3000 + c.dim);
  Result<Dataset> data = GenerateByName(c.dataset, 4000, c.dim, rng);
  ASSERT_TRUE(data.ok());
  DiskManager disk_a;
  GirEngineOptions plain;
  auto engine_a = OpenEngineOrDie(
      EngineConfig::FromDataset(&*data, &disk_a, MakeScoring("Linear", c.dim), plain));
  DiskManager disk_b;
  GirEngineOptions tight;
  tight.fp.phase1_tightening = true;
  auto engine_b = OpenEngineOrDie(
      EngineConfig::FromDataset(&*data, &disk_b, MakeScoring("Linear", c.dim), tight));

  for (int trial = 0; trial < 4; ++trial) {
    Vec w(c.dim);
    for (int j = 0; j < c.dim; ++j) w[j] = rng.Uniform(0.1, 1.0);
    Result<GirComputation> a = engine_a->ComputeGir(w, c.k, Phase2Method::kFP);
    Result<GirComputation> b = engine_b->ComputeGir(w, c.k, Phase2Method::kFP);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->topk.result, b->topk.result);
    // Note: tightening is a heuristic — skipping Phase-1-redundant
    // records can occasionally *weaken* the star's own pruning, so no
    // per-query read inequality holds; correctness (identical region)
    // is the invariant.
    for (int probe = 0; probe < 300; ++probe) {
      Vec q(c.dim);
      for (int j = 0; j < c.dim; ++j) q[j] = rng.Uniform();
      EXPECT_EQ(a->region.Contains(q), b->region.Contains(q))
          << "trial " << trial << " probe " << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TighteningTest,
                         ::testing::Values(TightenCase{"IND", 3, 10},
                                           TightenCase{"IND", 4, 20},
                                           TightenCase{"ANTI", 3, 10},
                                           TightenCase{"COR", 4, 5}));

// ---------- STB (Soliman et al.) baseline ----------
TEST(StbTest, BallIsInsideTheGir) {
  Rng rng(61);
  Dataset data = GenerateIndependent(2000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  for (int trial = 0; trial < 6; ++trial) {
    Vec w = {rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8),
             rng.Uniform(0.2, 0.8)};
    Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
    ASSERT_TRUE(gir.ok());
    double r = StbRadius(gir->region);
    EXPECT_GT(r, 0.0);
    // Random points strictly inside the ball are inside the GIR.
    for (int probe = 0; probe < 200; ++probe) {
      Vec dir(3);
      for (int j = 0; j < 3; ++j) dir[j] = rng.Uniform(-1.0, 1.0);
      double norm = Norm(dir);
      if (norm < 1e-9) continue;
      Vec q = AddScaled(w, dir, 0.999 * r * rng.Uniform() / norm);
      EXPECT_TRUE(gir->region.Contains(q, 1e-12))
          << "STB ball escaped the GIR";
    }
    // Maximality: a slightly larger ball pokes out of the region, i.e.
    // some constraint is at distance exactly r.
    double min_dist = 1e300;
    for (const GirConstraint& c : gir->region.constraints()) {
      min_dist = std::min(min_dist, Dot(c.normal, w) / Norm(c.normal));
    }
    for (int j = 0; j < 3; ++j) {
      min_dist = std::min(min_dist, std::min(w[j], 1.0 - w[j]));
    }
    EXPECT_NEAR(r, min_dist, 1e-12);
  }
}

TEST(StbTest, BallVolumeFormula) {
  EXPECT_NEAR(BallVolume(2, 1.0), M_PI, 1e-9);
  EXPECT_NEAR(BallVolume(3, 1.0), 4.0 * M_PI / 3.0, 1e-9);
  EXPECT_NEAR(BallVolume(3, 0.5), 4.0 * M_PI / 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(BallVolume(4, 1.0), M_PI * M_PI / 2.0, 1e-9);
}

TEST(StbTest, StbUnderestimatesGirVolume) {
  // The paper's §2 point: STB ⊆ GIR, so the ball volume understates the
  // immutable locus, often badly (the GIR is a thin cone, not a ball).
  Rng rng(62);
  Dataset data = GenerateIndependent(3000, 3, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  Vec w = {0.5, 0.6, 0.7};
  Result<GirComputation> gir = engine->ComputeGir(w, 10, Phase2Method::kFP);
  ASSERT_TRUE(gir.ok());
  double gir_volume = gir->region.polytope().Volume();
  double stb_volume = BallVolume(3, StbRadius(gir->region));
  EXPECT_LT(stb_volume, gir_volume);
}

TEST(StbTest, ZeroForDegenerateQuery) {
  GirRegion region(2, Vec{0.5, 0.5}, {1});
  ConstraintProvenance prov;
  region.AddConstraint(Vec{1.0, -1.0}, prov);
  region.AddConstraint(Vec{-1.0, 1.0}, prov);  // q exactly on both planes
  EXPECT_DOUBLE_EQ(StbRadius(region), 0.0);
}

// ---------- IncidentStar in isolation ----------
TEST(IncidentStarTest, InitialStarHasDimFacets) {
  IncidentStar star(Vec{0.8, 0.7, 0.9});
  EXPECT_EQ(star.live_facet_count(), 3u);
  EXPECT_TRUE(star.CriticalRecordIds().empty());
}

TEST(IncidentStarTest, DominatedPointIsPruned) {
  IncidentStar star(Vec{0.8, 0.8});
  Result<bool> r = star.Insert(Vec{0.5, 0.5}, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // below both initial facets
  EXPECT_TRUE(star.CriticalRecordIds().empty());
}

TEST(IncidentStarTest, ExtremePointEntersStar) {
  IncidentStar star(Vec{0.8, 0.8});
  Result<bool> r = star.Insert(Vec{0.9, 0.2}, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  std::vector<int> crit = star.CriticalRecordIds();
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_EQ(crit[0], 7);
  EXPECT_EQ(star.live_facet_count(), 2u);  // d facets in 2-D always
}

TEST(IncidentStarTest, CriticalSetMatchesNormalConeOracle) {
  // The star's emitted constraints must carve exactly the normal cone:
  // q' (>=0) keeps the apex on top  <=>  q' satisfies all critical
  // constraints.
  Rng rng(71);
  for (int d : {2, 3, 4, 5}) {
    Vec apex(d, 0.95);
    std::vector<Vec> points;
    IncidentStar star(apex);
    for (int i = 0; i < 300; ++i) {
      Vec p(d);
      for (int j = 0; j < d; ++j) p[j] = rng.Uniform(0.0, 0.9);
      Result<bool> r = star.Insert(p, i);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      points.push_back(std::move(p));
    }
    std::set<int> critical;
    for (int id : star.CriticalRecordIds()) critical.insert(id);
    for (int probe = 0; probe < 200; ++probe) {
      Vec q(d);
      for (int j = 0; j < d; ++j) q[j] = rng.Uniform(0.01, 1.0);
      bool apex_wins = true;
      for (const Vec& p : points) {
        if (Dot(p, q) > Dot(apex, q)) {
          apex_wins = false;
          break;
        }
      }
      bool critical_ok = true;
      for (int id : critical) {
        if (Dot(points[id], q) > Dot(apex, q)) {
          critical_ok = false;
          break;
        }
      }
      EXPECT_EQ(apex_wins, critical_ok) << "d=" << d << " probe=" << probe;
    }
  }
}

TEST(IncidentStarTest, DuplicateOfVertexIsIgnored) {
  IncidentStar star(Vec{0.9, 0.9, 0.9});
  Vec p = {0.95, 0.2, 0.3};
  ASSERT_TRUE(*star.Insert(p, 1));
  Result<bool> again = star.Insert(p, 2);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);  // lies ON existing facets, not above
}

TEST(IncidentStarTest, FacetsCreatedMonotone) {
  Rng rng(72);
  IncidentStar star(Vec{0.9, 0.9, 0.9, 0.9});
  size_t created = star.facets_created();
  for (int i = 0; i < 100; ++i) {
    Vec p(4);
    for (int j = 0; j < 4; ++j) p[j] = rng.Uniform(0.0, 0.95);
    ASSERT_TRUE(star.Insert(p, i).ok());
    EXPECT_GE(star.facets_created(), created);
    created = star.facets_created();
    EXPECT_LE(star.live_facet_count(), star.facets_created());
  }
}

// ---------- FP seeding-heuristic equivalence ----------
TEST(FpSeedingTest, HeuristicDoesNotChangeTheRegion) {
  Rng rng(81);
  Dataset data = GenerateAnticorrelated(3000, 4, rng);
  DiskManager disk_a;
  GirEngineOptions with;
  with.fp.max_coordinate_seeding = true;
  auto engine_a = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk_a, MakeScoring("Linear", 4), with));
  DiskManager disk_b;
  GirEngineOptions without;
  without.fp.max_coordinate_seeding = false;
  auto engine_b = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk_b, MakeScoring("Linear", 4), without));
  Vec w = {0.5, 0.7, 0.4, 0.8};
  Result<GirComputation> a = engine_a->ComputeGir(w, 15, Phase2Method::kFP);
  Result<GirComputation> b = engine_b->ComputeGir(w, 15, Phase2Method::kFP);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int probe = 0; probe < 400; ++probe) {
    Vec q(4);
    for (int j = 0; j < 4; ++j) q[j] = rng.Uniform();
    EXPECT_EQ(a->region.Contains(q), b->region.Contains(q));
  }
}

// ---------- FP 2-D angular variant vs d-dim star ----------
TEST(Fp2dVsNdTest, IdenticalRegionsIn2D) {
  Rng rng(91);
  Dataset data = GenerateIndependent(2500, 2, rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 2)));
  LinearScoring scoring(2);
  for (int trial = 0; trial < 6; ++trial) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0)};
    // Engine dispatches to the angular variant at d == 2.
    Result<GirComputation> via2d = engine->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(via2d.ok());
    // Run the d-dimensional star machinery on the same query.
    Result<TopKResult> topk = RunBrs(engine->flat_tree(), scoring, w, 8);
    ASSERT_TRUE(topk.ok());
    GirRegion region_nd(2, w, topk->result);
    AddPhase1Constraints(data, scoring, topk->result, &region_nd);
    Result<Phase2Output> nd =
        RunFpNdPhase2(engine->flat_tree(), scoring, w, *topk, &region_nd);
    ASSERT_TRUE(nd.ok());
    for (int probe = 0; probe < 400; ++probe) {
      Vec q = {rng.Uniform(), rng.Uniform()};
      EXPECT_EQ(via2d->region.Contains(q), region_nd.Contains(q))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace gir
