// Figure 8: rationale of Facet Pruning.
//   (a) number of facets on CH' = conv({p_k} ∪ D\R) vs dimensionality
//   (b) number of facets incident to p_k vs dimensionality
// The full-hull column requires building CH' outright, which is exactly
// the cost FP avoids — so its default n is smaller than (b)'s.
#include <numeric>

#include "bench_util.h"
#include "geom/convex_hull.h"
#include "topk/brs.h"

using namespace gir;
using namespace gir::bench;

int main(int argc, char** argv) {
  Params params;
  params.n = 20000;
  FlagSet flags;
  params.Register(&flags);
  int64_t dmax = 5;
  int64_t hull_n = 8000;
  flags.AddInt("dmax", &dmax, "largest dimensionality to test");
  flags.AddInt("hull-n", &hull_n,
               "cardinality for the full-CH' column (expensive)");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  params.ApplyFullDefaults();
  if (params.full) dmax = 8;

  const std::vector<std::string> dists = {"IND", "ANTI", "COR"};
  std::printf("Figure 8: FP effectiveness (full hull over n=%lld, star over "
              "n=%lld, k=%lld)\n",
              static_cast<long long>(hull_n),
              static_cast<long long>(params.n),
              static_cast<long long>(params.k));

  std::vector<std::vector<double>> total(dists.size()),
      incident(dists.size());
  for (size_t di = 0; di < dists.size(); ++di) {
    for (int64_t d = 2; d <= dmax; ++d) {
      bool heavy = dists[di] == "ANTI" && d > 5 && !params.full;
      // --- (a) full CH' facet count (scaled-down cardinality) ---
      double facets_total = -1.0;
      if (!heavy) {
        Dataset data =
            MakeNamedDataset(dists[di], hull_n, d, params.seed + d);
        DiskManager disk;
        const FlatRTree flat =
            FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
        LinearScoring scoring(d);
        Rng qrng(params.seed + 31 * d);
        Vec w = RandomQuery(qrng, d);
        Result<TopKResult> topk = RunBrs(flat, scoring, w, params.k);
        if (topk.ok()) {
          std::vector<Vec> pts;
          std::vector<bool> in_r(data.size(), false);
          for (RecordId id : topk->result) in_r[id] = true;
          pts.push_back(data.GetVec(topk->result.back()));  // p_k
          for (size_t i = 0; i < data.size(); ++i) {
            if (!in_r[i]) pts.push_back(data.GetVec(static_cast<RecordId>(i)));
          }
          Result<ConvexHull> hull = ConvexHull::Build(pts);
          if (hull.ok()) facets_total = hull->facets().size();
        }
      }
      total[di].push_back(facets_total);

      // --- (b) facets incident to p_k, via the FP star ---
      double facets_incident = -1.0;
      if (!heavy) {
        Dataset data =
            MakeNamedDataset(dists[di], params.n, d, params.seed + d);
        DiskManager disk;
        GirEngineOptions opt;
        opt.materialize_polytope = false;
        auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d), opt));
        Rng rng(params.seed * 7 + d);
        double sum = 0.0;
        int done = 0;
        for (int64_t q = 0; q < params.queries; ++q) {
          Vec w = RandomQuery(rng, d);
          Result<GirComputation> gir =
              engine->ComputeGir(w, params.k, Phase2Method::kFP);
          if (gir.ok()) {
            sum += d == 2 ? 2.0
                          : static_cast<double>(gir->stats.star_facets);
            ++done;
          }
        }
        if (done) facets_incident = sum / done;
      }
      incident[di].push_back(facets_incident);
    }
  }

  PrintTitle("Figure 8(a): facets on CH' vs d");
  PrintHeader("d", {"Independent", "Anti-corr", "Correlated"});
  for (int64_t d = 2; d <= dmax; ++d) {
    PrintRow(d, {total[0][d - 2], total[1][d - 2], total[2][d - 2]});
  }
  PrintTitle("Figure 8(b): facets incident to p_k vs d");
  PrintHeader("d", {"Independent", "Anti-corr", "Correlated"});
  for (int64_t d = 2; d <= dmax; ++d) {
    PrintRow(d,
             {incident[0][d - 2], incident[1][d - 2], incident[2][d - 2]});
  }
  std::printf("\nExpected shape: incident facets are a vanishing fraction "
              "of CH' facets; both grow with d; ANTI > IND > COR.\n");
  return 0;
}
