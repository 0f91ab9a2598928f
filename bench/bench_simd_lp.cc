// PR 4 performance core bench: runtime-dispatched SIMD kernels and the
// batched warm-start LP micro-solver, measured in whatever build ran it
// (the committed BENCH_PR4.json baseline comes from a *default* Release
// build — no -march=native — which is the point: the dispatch layer
// must deliver without ISA flags).
//
// Two acceptance bars, enforced by the exit code so CI gates on them:
//   - batched entry scoring >= 1.5x over the scalar AoS reference
//     (node_score_speedup_vs_aos)
//   - the AdmitsGain/invalidation LP phase >= 2x over the per-call
//     solver, at bitwise-equal eviction decisions (lp.speedup &&
//     lp.decisions_equal)
//
//   ./bench_simd_lp [--n 50000] [--d 4] [--k 20] [--regions 24]
//                   [--gains 64] [--reps 5] [--seed 2014]
//                   [--out BENCH_PR4.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "skyline/skyline.h"
#include "topk/tree_kernels.h"

using namespace gir;
using namespace gir::bench;

namespace {

struct ScoreMicro {
  double aos_ns = 0.0;            // mutable-tree scalar reference
  double flat_scalar_ns = 0.0;    // SoA kernel, forced-scalar tier
  double flat_sse2_ns = 0.0;      // 0 when the tier is unavailable
  double flat_avx2_ns = 0.0;      // 0 when the tier is unavailable
  double flat_active_ns = 0.0;    // SoA kernel, auto-dispatched tier
};

struct DominanceMicro {
  double scalar_tier_ms = 0.0;  // full skyline build wall time
  double active_tier_ms = 0.0;
};

struct TransformMicro {
  double poly_scalar_ns = 0.0;  // per element, forced-scalar tier
  double poly_active_ns = 0.0;
  double mixed_scalar_ns = 0.0;
  double mixed_active_ns = 0.0;
};

struct LpMicro {
  size_t regions = 0;
  size_t gains_per_region = 0;
  double per_call_ms = 0.0;  // AdmitsGain loop, one cold LP per pair
  double batch_ms = 0.0;     // FirstAdmittedGain, shared Prepare + warm
  bool decisions_equal = true;
  uint64_t admitted = 0;  // regions pierced (same for both paths)
};

bool TierAvailable(simd::Tier t) {
  return static_cast<int>(t) <= static_cast<int>(simd::DetectedTier());
}

// Sweeps every node of both representations `reps` times under the
// currently-forced tier; returns ns per entry.
double SweepFlat(const FlatRTree& flat, const ScoringFunction& scoring,
                 const Dataset& data, VecView w, size_t entries, int reps,
                 double* sink) {
  ScoreBuffer buf;
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    for (size_t p = 0; p < flat.node_count(); ++p) {
      ComputeEntryScores(scoring, data, flat.PeekNode(static_cast<PageId>(p)),
                         w, &buf);
      *sink += buf.scores[0];
    }
  }
  return sw.ElapsedMillis() * 1e6 / (static_cast<double>(entries) * reps);
}

ScoreMicro RunScoreMicro(int64_t n, int64_t d, int64_t seed, int reps) {
  ScoreMicro out;
  Rng rng(static_cast<uint64_t>(seed) + 101);
  Dataset data = GenerateIndependent(static_cast<size_t>(n),
                                     static_cast<size_t>(d), rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(static_cast<size_t>(d));
  Vec w = RandomQuery(rng, static_cast<size_t>(d));

  size_t entries = 0;
  for (size_t p = 0; p < tree.node_count(); ++p) {
    entries += tree.PeekNode(static_cast<PageId>(p)).entries.size();
  }
  double sink = 0.0;
  ScoreBuffer buf;
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    for (size_t p = 0; p < tree.node_count(); ++p) {
      AosEntryScores(scoring, data, tree.PeekNode(static_cast<PageId>(p)), w,
                     &buf);
      sink += buf.scores[0];
    }
  }
  out.aos_ns =
      sw.ElapsedMillis() * 1e6 / (static_cast<double>(entries) * reps);

  const simd::Tier saved = simd::ActiveTier();
  simd::ForceTier(simd::Tier::kScalar);
  out.flat_scalar_ns = SweepFlat(flat, scoring, data, w, entries, reps, &sink);
  if (TierAvailable(simd::Tier::kSse2)) {
    simd::ForceTier(simd::Tier::kSse2);
    out.flat_sse2_ns = SweepFlat(flat, scoring, data, w, entries, reps, &sink);
  }
  if (TierAvailable(simd::Tier::kAvx2)) {
    simd::ForceTier(simd::Tier::kAvx2);
    out.flat_avx2_ns = SweepFlat(flat, scoring, data, w, entries, reps, &sink);
  }
  simd::ForceTier(saved);
  out.flat_active_ns = SweepFlat(flat, scoring, data, w, entries, reps, &sink);
  if (sink == -1.0) std::printf("unreachable\n");
  return out;
}

// Full incremental-skyline build over an anti-correlated sample (the
// dominance-scan-dominated workload), scalar tier vs the dispatched
// tier. Identical insert order => identical comparison counts, so the
// wall-time ratio is the kernel speedup.
DominanceMicro RunDominanceMicro(int64_t d, int64_t seed) {
  DominanceMicro out;
  Rng rng(static_cast<uint64_t>(seed) + 202);
  Dataset anti = GenerateAnticorrelated(4000, static_cast<size_t>(d), rng);
  const simd::Tier saved = simd::ActiveTier();
  double sink = 0.0;
  const int reps = 8;
  auto build = [&]() {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      SkylineSet sky(&anti);
      for (size_t i = 0; i < anti.size(); ++i) {
        sky.Insert(static_cast<RecordId>(i));
      }
      sink += static_cast<double>(sky.size());
    }
    return sw.ElapsedMillis() / reps;
  };
  simd::ForceTier(simd::Tier::kScalar);
  out.scalar_tier_ms = build();
  simd::ForceTier(saved);
  out.active_tier_ms = build();
  if (sink == -1.0) std::printf("unreachable\n");
  return out;
}

TransformMicro RunTransformMicro(int64_t seed) {
  TransformMicro out;
  Rng rng(static_cast<uint64_t>(seed) + 303);
  const size_t n = 1 << 16;
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.Uniform();
  PolynomialScoring poly(6);
  MixedScoring mixed(4);
  const simd::Tier saved = simd::ActiveTier();
  const int reps = 60;
  double sink = 0.0;
  auto run = [&](const ScoringFunction& s, size_t dim_index) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      s.TransformDimBatch(dim_index, x.data(), n, y.data());
      sink += y[0];
    }
    return sw.ElapsedMillis() * 1e6 / (static_cast<double>(n) * reps);
  };
  simd::ForceTier(simd::Tier::kScalar);
  out.poly_scalar_ns = run(poly, 0);   // exponent 6
  out.mixed_scalar_ns = run(mixed, 0);  // x^2 plane
  simd::ForceTier(saved);
  out.poly_active_ns = run(poly, 0);
  out.mixed_active_ns = run(mixed, 0);
  if (sink == -1.0) std::printf("unreachable\n");
  return out;
}

// The invalidation LP phase: per-(region, insert) piercing tests. The
// per-call path solves each LP cold (the PR 3 shape: assemble + phase 2
// from the slack basis per pair); the batch path shares one Prepare per
// region and warm-starts every subsequent LP. Decisions (first admitted
// insert per region, i.e. the eviction verdicts) must match exactly.
LpMicro RunLpMicro(int64_t n, int64_t d, int64_t k, int64_t num_regions,
                   int64_t num_gains, int reps, int64_t seed) {
  LpMicro out;
  out.regions = static_cast<size_t>(num_regions);
  out.gains_per_region = static_cast<size_t>(num_gains);
  Rng rng(static_cast<uint64_t>(seed));
  Dataset data = GenerateIndependent(static_cast<size_t>(n),
                                     static_cast<size_t>(d), rng);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk,
                   MakeScoring("Linear", static_cast<size_t>(d))));
  std::vector<GirRegion> regions;
  std::vector<Vec> gks;
  for (int64_t q = 0; q < num_regions; ++q) {
    Vec w = RandomQuery(rng, static_cast<size_t>(d));
    Result<GirComputation> gir =
        engine->ComputeGir(w, static_cast<size_t>(k), Phase2Method::kFP);
    if (!gir.ok()) {
      std::fprintf(stderr, "GIR failed: %s\n", gir.status().message().c_str());
      std::exit(1);
    }
    regions.push_back(gir->region.ConstraintsOnly());
    gks.push_back(
        engine->scoring().Transform(data.Get(gir->topk.result.back())));
  }

  // Simulated insert stream: random points, the same for every region;
  // per-region gains g(p) − g(p_k).
  std::vector<Vec> inserts;
  for (int64_t t = 0; t < num_gains; ++t) {
    Vec p(static_cast<size_t>(d));
    for (double& x : p) x = rng.Uniform();
    inserts.push_back(engine->scoring().Transform(p));
  }
  const size_t dim = static_cast<size_t>(d);
  std::vector<std::vector<double>> gains(regions.size());
  for (size_t r = 0; r < regions.size(); ++r) {
    gains[r].resize(inserts.size() * dim);
    for (size_t t = 0; t < inserts.size(); ++t) {
      for (size_t j = 0; j < dim; ++j) {
        gains[r][t * dim + j] = inserts[t][j] - gks[r][j];
      }
    }
  }

  std::vector<size_t> per_call_first(regions.size());
  std::vector<size_t> batch_first(regions.size());

  Stopwatch sw;
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t r = 0; r < regions.size(); ++r) {
      size_t first = inserts.size();
      for (size_t t = 0; t < inserts.size(); ++t) {
        if (regions[r].AdmitsGain(
                VecView(gains[r].data() + t * dim, dim))) {
          first = t;
          break;
        }
      }
      per_call_first[r] = first;
    }
  }
  out.per_call_ms = sw.ElapsedMillis() / reps;

  LpWorkspace ws;
  sw.Restart();
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t r = 0; r < regions.size(); ++r) {
      batch_first[r] =
          regions[r].FirstAdmittedGain(gains[r].data(), inserts.size(), &ws);
    }
  }
  out.batch_ms = sw.ElapsedMillis() / reps;

  for (size_t r = 0; r < regions.size(); ++r) {
    if (per_call_first[r] != batch_first[r]) out.decisions_equal = false;
    if (batch_first[r] < inserts.size()) ++out.admitted;
  }
  return out;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 50000;
  int64_t d = 4;
  int64_t k = 20;
  int64_t num_regions = 24;
  int64_t num_gains = 64;
  int64_t reps = 5;
  int64_t seed = 2014;
  std::string out_path = "BENCH_PR4.json";
  FlagSet flags;
  flags.AddInt("n", &n, "dataset cardinality");
  flags.AddInt("d", &d, "dimensionality");
  flags.AddInt("k", &k, "top-k result size");
  flags.AddInt("regions", &num_regions, "cached regions in the LP phase");
  flags.AddInt("gains", &num_gains, "inserts tested against each region");
  flags.AddInt("reps", &reps, "measurement repetitions");
  flags.AddInt("seed", &seed, "RNG seed");
  flags.AddString("out", &out_path, "output JSON path");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;

  std::printf("simd: detected=%s active=%s\n",
              simd::TierName(simd::DetectedTier()),
              simd::TierName(simd::ActiveTier()));

  ScoreMicro score = RunScoreMicro(n, d, seed, static_cast<int>(reps) * 8);
  const double score_speedup_aos = Ratio(score.aos_ns, score.flat_active_ns);
  const double score_speedup_tier =
      Ratio(score.flat_scalar_ns, score.flat_active_ns);
  std::printf("node scoring: aos %.2f, flat scalar %.2f, sse2 %.2f, "
              "avx2 %.2f, active %.2f ns/entry (%.2fx vs aos, %.2fx vs "
              "scalar tier)\n",
              score.aos_ns, score.flat_scalar_ns, score.flat_sse2_ns,
              score.flat_avx2_ns, score.flat_active_ns, score_speedup_aos,
              score_speedup_tier);

  DominanceMicro dom = RunDominanceMicro(d, seed);
  const double dom_speedup = Ratio(dom.scalar_tier_ms, dom.active_tier_ms);
  std::printf("dominance:    scalar tier %.3f ms, active tier %.3f ms "
              "(%.2fx)\n",
              dom.scalar_tier_ms, dom.active_tier_ms, dom_speedup);

  TransformMicro tr = RunTransformMicro(seed);
  std::printf("transforms:   poly %.2f -> %.2f ns/elem, mixed-sq %.2f -> "
              "%.2f ns/elem\n",
              tr.poly_scalar_ns, tr.poly_active_ns, tr.mixed_scalar_ns,
              tr.mixed_active_ns);

  LpMicro lp = RunLpMicro(n, d, k, num_regions, num_gains,
                          static_cast<int>(reps), seed);
  const double lp_speedup = Ratio(lp.per_call_ms, lp.batch_ms);
  std::printf("invalidation LP phase: per-call %.3f ms, batch %.3f ms "
              "(%.2fx), decisions %s, %llu/%zu regions pierced\n",
              lp.per_call_ms, lp.batch_ms, lp_speedup,
              lp.decisions_equal ? "EQUAL" : "DIVERGED",
              static_cast<unsigned long long>(lp.admitted), lp.regions);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_simd_lp\",\n");
  std::fprintf(f,
               "  \"params\": {\"n\": %lld, \"d\": %lld, \"k\": %lld, "
               "\"regions\": %lld, \"gains\": %lld, \"reps\": %lld, "
               "\"seed\": %lld},\n",
               static_cast<long long>(n), static_cast<long long>(d),
               static_cast<long long>(k), static_cast<long long>(num_regions),
               static_cast<long long>(num_gains), static_cast<long long>(reps),
               static_cast<long long>(seed));
  std::fprintf(f, "  \"simd\": {\"detected_tier\": \"%s\", "
               "\"active_tier\": \"%s\"},\n",
               simd::TierName(simd::DetectedTier()),
               simd::TierName(simd::ActiveTier()));
  std::fprintf(f, "  \"micro\": {\n");
  std::fprintf(f, "    \"node_score_aos_ns_per_entry\": %.3f,\n",
               score.aos_ns);
  std::fprintf(f, "    \"node_score_flat_scalar_ns_per_entry\": %.3f,\n",
               score.flat_scalar_ns);
  std::fprintf(f, "    \"node_score_flat_sse2_ns_per_entry\": %.3f,\n",
               score.flat_sse2_ns);
  std::fprintf(f, "    \"node_score_flat_avx2_ns_per_entry\": %.3f,\n",
               score.flat_avx2_ns);
  std::fprintf(f, "    \"node_score_flat_active_ns_per_entry\": %.3f,\n",
               score.flat_active_ns);
  std::fprintf(f, "    \"node_score_speedup_vs_aos\": %.3f,\n",
               score_speedup_aos);
  std::fprintf(f, "    \"node_score_speedup_vs_scalar_tier\": %.3f,\n",
               score_speedup_tier);
  std::fprintf(f, "    \"dominance_scalar_tier_ms\": %.4f,\n",
               dom.scalar_tier_ms);
  std::fprintf(f, "    \"dominance_active_tier_ms\": %.4f,\n",
               dom.active_tier_ms);
  std::fprintf(f, "    \"dominance_tier_speedup\": %.3f,\n", dom_speedup);
  std::fprintf(f, "    \"transform_poly_scalar_ns\": %.3f,\n",
               tr.poly_scalar_ns);
  std::fprintf(f, "    \"transform_poly_active_ns\": %.3f,\n",
               tr.poly_active_ns);
  std::fprintf(f, "    \"transform_mixed_sq_scalar_ns\": %.3f,\n",
               tr.mixed_scalar_ns);
  std::fprintf(f, "    \"transform_mixed_sq_active_ns\": %.3f\n",
               tr.mixed_active_ns);
  std::fprintf(f, "  },\n  \"lp\": {\n");
  std::fprintf(f, "    \"regions\": %zu,\n", lp.regions);
  std::fprintf(f, "    \"gains_per_region\": %zu,\n", lp.gains_per_region);
  std::fprintf(f, "    \"per_call_ms\": %.4f,\n", lp.per_call_ms);
  std::fprintf(f, "    \"batch_ms\": %.4f,\n", lp.batch_ms);
  std::fprintf(f, "    \"speedup\": %.3f,\n", lp_speedup);
  std::fprintf(f, "    \"decisions_equal\": %s,\n",
               lp.decisions_equal ? "true" : "false");
  std::fprintf(f, "    \"regions_pierced\": %llu\n",
               static_cast<unsigned long long>(lp.admitted));
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Acceptance bars (see file comment). Exit 2 keeps the failure
  // distinguishable from infrastructure errors.
  const bool pass = score_speedup_aos >= 1.5 && lp_speedup >= 2.0 &&
                    lp.decisions_equal;
  if (!pass) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: score %.2fx (need >= 1.5), lp %.2fx "
                 "(need >= 2.0), decisions_equal=%d\n",
                 score_speedup_aos, lp_speedup, lp.decisions_equal);
    return 2;
  }
  return 0;
}
