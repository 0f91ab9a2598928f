// Bit-identity of the runtime-dispatched SIMD kernels across every
// dispatch tier the machine supports: dims 2–10 × IND/COR/ANTI × all
// scoring functions, each tier forced via simd::ForceTier. The scalar
// tier is the reference; every wider tier must reproduce its scores,
// dominance verdicts, range-query survivors and (through the engine)
// IoStats bit for bit — that is the contract that lets the node-level
// score identity of flat_rtree_test hold on every SIMD path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "index/mbb.h"
#include "skyline/skyline.h"
#include "topk/tree_kernels.h"

namespace gir {
namespace {

std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  const int detected = static_cast<int>(simd::DetectedTier());
  if (detected >= static_cast<int>(simd::Tier::kSse2)) {
    tiers.push_back(simd::Tier::kSse2);
  }
  if (detected >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the startup dispatch tier when a test scope ends, so a
// failing assertion can't leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

Dataset MakeDist(const std::string& dist, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  if (dist == "COR") return GenerateCorrelated(n, d, rng);
  if (dist == "ANTI") return GenerateAnticorrelated(n, d, rng);
  return GenerateIndependent(n, d, rng);
}

Vec MakeQuery(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

const char* kDists[] = {"IND", "COR", "ANTI"};
const char* kScorings[] = {"Linear", "Polynomial", "Mixed"};

TEST(SimdDispatchTest, ForceTierClampsAndReports) {
  TierGuard guard;
  EXPECT_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  // Whatever the machine, forcing the detected tier is always honored.
  EXPECT_EQ(simd::ForceTier(simd::DetectedTier()), simd::DetectedTier());
  // Requests beyond the CPU clamp down, never up.
  simd::Tier avx2 = simd::ForceTier(simd::Tier::kAvx2);
  EXPECT_LE(static_cast<int>(avx2), static_cast<int>(simd::DetectedTier()));
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(simd::Tier::kSse2), "sse2");
  EXPECT_STREQ(simd::TierName(simd::Tier::kAvx2), "avx2");
}

// Entry scoring (the SoA hi-plane kernel) and the per-dimension batch
// transforms: every tier bitwise-equal to the forced-scalar reference,
// and the batch transform bitwise-equal to per-element TransformDim.
TEST(SimdDispatchTest, EntryScoresAndTransformsBitIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; ++d) {
    for (const char* dist : kDists) {
      Dataset data = MakeDist(dist, 1200, d, 1700 + d);
      DiskManager disk;
      RTree tree = RTree::BulkLoad(&data, &disk);
      FlatRTree flat = FlatRTree::Freeze(tree);
      Rng qrng(90 + d);
      Vec w = MakeQuery(qrng, d);
      for (const char* sname : kScorings) {
        std::unique_ptr<ScoringFunction> scoring = MakeScoring(sname, d);

        // Scalar reference sweep over every node of the flat image.
        simd::ForceTier(simd::Tier::kScalar);
        std::vector<std::vector<double>> reference;
        ScoreBuffer buf;
        for (size_t p = 0; p < flat.node_count(); ++p) {
          ComputeEntryScores(*scoring, data,
                             flat.PeekNode(static_cast<PageId>(p)), w, &buf);
          reference.push_back(buf.scores);
        }

        for (simd::Tier tier : tiers) {
          simd::ForceTier(tier);
          for (size_t p = 0; p < flat.node_count(); ++p) {
            ComputeEntryScores(*scoring, data,
                               flat.PeekNode(static_cast<PageId>(p)), w,
                               &buf);
            ASSERT_EQ(buf.scores.size(), reference[p].size());
            for (size_t e = 0; e < buf.scores.size(); ++e) {
              ASSERT_EQ(buf.scores[e], reference[p][e])
                  << "tier=" << simd::TierName(tier) << " dist=" << dist
                  << " scoring=" << sname << " d=" << d << " node=" << p
                  << " entry=" << e;
            }
          }

          // Batch transform == per-element scalar TransformDim.
          const double* column = data.Column(0);
          const size_t n = std::min<size_t>(data.size(), 257);
          std::vector<double> out(n);
          for (size_t j = 0; j < d; ++j) {
            scoring->TransformDimBatch(j, column, n, out.data());
            for (size_t e = 0; e < n; ++e) {
              ASSERT_EQ(out[e], scoring->TransformDim(j, column[e]))
                  << "tier=" << simd::TierName(tier) << " scoring=" << sname
                  << " j=" << j;
            }
          }
        }
      }
    }
  }
}

// Dominance verdicts: SkylineSet evolution (members after every insert)
// and DominatedByMember probes identical on every tier.
TEST(SimdDispatchTest, DominanceVerdictsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; ++d) {
    for (const char* dist : kDists) {
      Dataset data = MakeDist(dist, 900, d, 4400 + d);
      simd::ForceTier(simd::Tier::kScalar);
      SkylineSet reference(&data);
      std::vector<bool> inserted;
      for (size_t i = 0; i < data.size(); ++i) {
        inserted.push_back(reference.Insert(static_cast<RecordId>(i)));
      }
      for (simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        SkylineSet sky(&data);
        for (size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(sky.Insert(static_cast<RecordId>(i)), inserted[i])
              << "tier=" << simd::TierName(tier) << " dist=" << dist
              << " d=" << d << " record=" << i;
        }
        ASSERT_EQ(sky.members(), reference.members());
        Rng prng(7 + d);
        for (int t = 0; t < 64; ++t) {
          Vec p(d);
          for (double& x : p) x = prng.Uniform();
          EXPECT_EQ(sky.DominatedByMember(p),
                    reference.DominatedByMember(p));
        }
      }
    }
  }
}

// The SoA interval-overlap sweep behind FlatRTree::RangeQuery: same
// survivors on every tier, and they match a brute-force scan.
TEST(SimdDispatchTest, RangeQueryMaskIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 10; d += 2) {
    Dataset data = MakeDist("IND", 1500, d, 95 + d);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    FlatRTree flat = FlatRTree::Freeze(tree);
    Rng rng(31 + d);
    for (int t = 0; t < 8; ++t) {
      Mbb box = Mbb::EmptyBox(d);
      for (size_t j = 0; j < d; ++j) {
        double a = rng.Uniform();
        double b = rng.Uniform();
        box.lo[j] = std::min(a, b);
        box.hi[j] = std::max(a, b);
      }
      std::vector<RecordId> expected;
      for (size_t i = 0; i < data.size(); ++i) {
        if (box.ContainsPoint(data.Get(static_cast<RecordId>(i)))) {
          expected.push_back(static_cast<RecordId>(i));
        }
      }
      std::sort(expected.begin(), expected.end());
      for (simd::Tier tier : tiers) {
        simd::ForceTier(tier);
        std::vector<RecordId> got = flat.RangeQuery(box);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected) << "tier=" << simd::TierName(tier)
                                 << " d=" << d << " trial=" << t;
      }
    }
  }
}

// The batched min/max-dot plane sweeps (general-sign weights) against
// the scalar per-box Mbb::MaxDot accumulation order.
TEST(SimdDispatchTest, MinMaxDotPlanesBitIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  Rng rng(2014);
  for (size_t d = 2; d <= 10; ++d) {
    const size_t n = 133;  // deliberately not a multiple of the lanes
    std::vector<std::vector<double>> lo(d), hi(d);
    for (size_t j = 0; j < d; ++j) {
      lo[j].resize(n);
      hi[j].resize(n);
      for (size_t e = 0; e < n; ++e) {
        double a = rng.Uniform();
        double b = rng.Uniform();
        lo[j][e] = std::min(a, b);
        hi[j][e] = std::max(a, b);
      }
    }
    Vec w(d);
    for (double& x : w) x = rng.Uniform(-1.0, 1.0);  // general sign

    simd::ForceTier(simd::Tier::kScalar);
    std::vector<double> max_ref(n, 0.0), min_ref(n, 0.0);
    for (size_t j = 0; j < d; ++j) {
      AccumulateMaxDotPlane(w[j], lo[j].data(), hi[j].data(), max_ref.data(),
                            n);
      AccumulateMinDotPlane(w[j], lo[j].data(), hi[j].data(), min_ref.data(),
                            n);
    }
    // Per-box scalar cross-check: same value as Mbb::MaxDot.
    for (size_t e = 0; e < n; ++e) {
      Mbb box = Mbb::EmptyBox(d);
      for (size_t j = 0; j < d; ++j) {
        box.lo[j] = lo[j][e];
        box.hi[j] = hi[j][e];
      }
      EXPECT_EQ(max_ref[e], box.MaxDot(w));
    }

    for (simd::Tier tier : tiers) {
      simd::ForceTier(tier);
      std::vector<double> max_got(n, 0.0), min_got(n, 0.0);
      for (size_t j = 0; j < d; ++j) {
        AccumulateMaxDotPlane(w[j], lo[j].data(), hi[j].data(),
                              max_got.data(), n);
        AccumulateMinDotPlane(w[j], lo[j].data(), hi[j].data(),
                              min_got.data(), n);
      }
      for (size_t e = 0; e < n; ++e) {
        ASSERT_EQ(max_got[e], max_ref[e]) << simd::TierName(tier);
        ASSERT_EQ(min_got[e], min_ref[e]) << simd::TierName(tier);
      }
    }
  }
}

// Whole-engine sweep: identical top-k ids and scores, identical region
// constraints, identical IoStats on every tier (kernel bit-identity
// implies identical traversal decisions, so page-read counts match).
TEST(SimdDispatchTest, EngineResultsAndIoStatsIdentical) {
  TierGuard guard;
  const std::vector<simd::Tier> tiers = AvailableTiers();
  for (size_t d = 2; d <= 6; ++d) {
    for (const char* dist : kDists) {
      for (const char* sname : kScorings) {
        Dataset data = MakeDist(dist, 900, d, 2600 + d);
        Rng qrng(55 + d);
        Vec w = MakeQuery(qrng, d);

        simd::ForceTier(simd::Tier::kScalar);
        DiskManager ref_disk;
        auto ref_engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &ref_disk, MakeScoring(sname, d)));
        Result<GirComputation> ref = ref_engine->ComputeGir(w, 8,
                                                           Phase2Method::kFP);
        ASSERT_TRUE(ref.ok()) << ref.status().message();

        for (simd::Tier tier : tiers) {
          simd::ForceTier(tier);
          DiskManager disk;
          auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring(sname, d)));
          Result<GirComputation> got = engine->ComputeGir(w, 8,
                                                         Phase2Method::kFP);
          ASSERT_TRUE(got.ok()) << got.status().message();
          SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) +
                       " dist=" + dist + " scoring=" + sname +
                       " d=" + std::to_string(d));
          ASSERT_EQ(got->topk.result, ref->topk.result);
          ASSERT_EQ(got->topk.scores.size(), ref->topk.scores.size());
          for (size_t i = 0; i < got->topk.scores.size(); ++i) {
            ASSERT_EQ(got->topk.scores[i], ref->topk.scores[i]);
          }
          EXPECT_EQ(got->stats.topk_reads, ref->stats.topk_reads);
          EXPECT_EQ(got->stats.phase2_reads, ref->stats.phase2_reads);
          EXPECT_EQ(got->stats.candidates, ref->stats.candidates);
          ASSERT_EQ(got->region.constraints().size(),
                    ref->region.constraints().size());
          for (size_t i = 0; i < got->region.constraints().size(); ++i) {
            const Vec& a = got->region.constraints()[i].normal;
            const Vec& b = ref->region.constraints()[i].normal;
            ASSERT_EQ(a.size(), b.size());
            ASSERT_EQ(std::memcmp(a.data(), b.data(),
                                  a.size() * sizeof(double)),
                      0);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gir
