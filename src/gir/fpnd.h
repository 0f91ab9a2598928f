#ifndef GIR_GIR_FPND_H_
#define GIR_GIR_FPND_H_

#include <map>
#include <vector>

#include "common/result.h"
#include "geom/hyperplane.h"
#include "gir/sp.h"

namespace gir {

// The data structure at the heart of Facet Pruning (paper §6.3): the
// facets of CH' = conv({apex} ∪ P) incident to the apex (its "star"),
// maintained incrementally as points of P arrive, without ever
// materialising the rest of the hull. Key invariant: a ridge containing
// the apex is always shared by exactly two *incident* facets, so
// horizon ridges of an insertion can be found purely inside the star.
//
// The star is seeded with d dummy points apex - c_i * e_i (with
// c_i = max(apex_i, 1/2)), which guarantees a full-dimensional initial
// simplex. Dummies are dominated by the apex component-wise, so any
// constraint they would induce is implied by q' >= 0 and they are
// excluded from CriticalRecordIds().
class IncidentStar {
 public:
  // `apex` in (transformed) data-space coordinates.
  explicit IncidentStar(Vec apex, double eps = 1e-10);

  // Processes one point. Returns true when the star changed (the point
  // was above at least one facet), false when it was pruned (the
  // common case: no copy of `p` is made then). Fails with
  // FailedPrecondition on a degenerate facet fit (caller may joggle
  // the point and retry, or add its constraint directly — both
  // preserve correctness), and with Internal, leaving the star
  // untouched, when the star's own invariants are found broken.
  Result<bool> Insert(VecView p, int external_id);

  struct StarFacet {
    std::vector<int> vertices;  // internal point ids; includes the apex
    Hyperplane plane;           // outward-oriented
    bool alive = true;
  };

  // All facets ever created; check `alive`. Compact by construction is
  // not needed: dead fraction stays modest for typical workloads.
  const std::vector<StarFacet>& facets() const { return facets_; }
  size_t live_facet_count() const { return live_count_; }
  // Total number of facets created over the lifetime (paper Fig. 8(b)
  // counts incident facets; this tracks the work performed).
  size_t facets_created() const { return facets_.size(); }

  // External ids of the current star vertices other than apex/dummies:
  // the paper's critical records.
  std::vector<int> CriticalRecordIds() const;

  // True when no point of the (transformed) box [lo, hi] can lie above
  // any live facet — the FP node-pruning test. `maxdot` must return
  // max over the box of normal·x (see MaxDotTransformedBox below).
  template <typename MaxDotFn>
  bool BoxBelowAllFacets(const MaxDotFn& maxdot) const {
    for (const StarFacet& f : facets_) {
      if (!f.alive) continue;
      if (maxdot(f.plane.normal) > f.plane.offset + eps_) return false;
    }
    return true;
  }

  const Vec& apex() const { return points_[0]; }

 private:
  std::vector<int> RidgeKey(const StarFacet& f, int omit_vertex) const;
  void RegisterFacet(int facet_id);
  void UnregisterFacet(int facet_id);

  double eps_;
  size_t dim_;
  std::vector<Vec> points_;        // [0]=apex, [1..d]=dummies, then data
  std::vector<int> external_ids_;  // -1 for apex and dummies
  Vec interior_;                   // strictly inside the growing hull
  std::vector<StarFacet> facets_;
  size_t live_count_ = 0;
  // sorted non-apex ridge vertex ids -> the (<=2) live facets sharing it
  std::map<std::vector<int>, std::vector<int>> ridges_;
};

struct FpOptions {
  // Paper §6.3.1 heuristic: feed the per-dimension maxima of T first so
  // early facets prune aggressively. Exposed for the ablation bench.
  bool max_coordinate_seeding = true;
  // Paper footnote 7: map the interim Phase-1 GIR into query-space
  // vertices and skip any record/node whose overtaking constraint
  // already holds everywhere on that polytope (it would be redundant in
  // the final intersection). Tightens disk fetches at the price of one
  // small half-space intersection up front. Off by default to mirror
  // the paper's evaluated configuration.
  bool phase1_tightening = false;
  double eps = 1e-10;
};

// Facet Pruning for d > 2 (also correct for d == 2; the engine uses the
// specialised angular variant there). Consumes the encountered set T
// and the retained BRS heap; emits one half-space per critical record.
Result<Phase2Output> RunFpNdPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region,
                                   const FpOptions& options = {});

// max over the (raw) box of sum_j n_j * g_j(x_j): per-dimension maximum
// at lo or hi since each g_j is monotone increasing.
double MaxDotTransformedBox(const ScoringFunction& scoring, const Mbb& box,
                            VecView normal);

}  // namespace gir

#endif  // GIR_GIR_FPND_H_
