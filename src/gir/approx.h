#ifndef GIR_GIR_APPROX_H_
#define GIR_GIR_APPROX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "index/flat_rtree.h"
#include "topk/scoring.h"

namespace gir {

// Scoring functions OUTSIDE the paper's sum-of-monotone-terms family:
// S(p, q) is monotone increasing in p (so index-based top-k still
// works) but not linear in q, so the preservation conditions are no
// longer half-spaces. Per §7.2 "exact representation of the GIR in such
// cases is computationally expensive or not possible at all, which
// would call for approximate GIR representation techniques, such as
// polytope approximation, Monte Carlo simulation" — this module is that
// technique set.
class GeneralScoringFunction {
 public:
  virtual ~GeneralScoringFunction() = default;
  virtual std::string name() const = 0;
  virtual size_t dim() const = 0;
  virtual double Score(VecView p, VecView q) const = 0;
  // Upper bound over a box; for monotone-in-p functions the top corner
  // suffices.
  virtual double MaxScore(const Mbb& box, VecView q) const {
    return Score(box.hi, q);
  }
};

// Egalitarian "worst dimension" preference: S = min_i w_i * p_i. The
// preserved region is an intersection of min-comparisons — piecewise
// linear and generally NOT convex, the canonical case the exact
// machinery cannot represent.
class MinScoring : public GeneralScoringFunction {
 public:
  explicit MinScoring(size_t dim) : dim_(dim) {}
  std::string name() const override { return "Min"; }
  size_t dim() const override { return dim_; }
  double Score(VecView p, VecView q) const override;

 private:
  size_t dim_;
};

// Adapter exposing an exact-family ScoringFunction through the general
// interface (used to validate the approximate machinery against the
// exact GIR).
class GeneralFromDecomposable : public GeneralScoringFunction {
 public:
  explicit GeneralFromDecomposable(std::unique_ptr<ScoringFunction> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  size_t dim() const override { return inner_->dim(); }
  double Score(VecView p, VecView q) const override {
    return inner_->Score(p, q);
  }
  double MaxScore(const Mbb& box, VecView q) const override {
    return inner_->MaxScore(box, q);
  }

 private:
  std::unique_ptr<ScoringFunction> inner_;
};

// Branch-and-bound top-k for any monotone-in-p general scoring
// function (the BRS recipe with function-supplied bounds) over the
// frozen image, charging one page read per expanded node. Works on
// every engine, mmap-only ones included (engine->flat_tree()).
Result<std::vector<RecordId>> GeneralTopK(const FlatRTree& tree,
                                          const GeneralScoringFunction& fn,
                                          VecView q, size_t k);

struct ApproxGirOptions {
  // Rays sampled from q for boundary bisection.
  size_t rays = 64;
  // Bisection iterations per ray (each costs one top-k evaluation).
  size_t bisection_steps = 18;
  // Monte-Carlo probes for the preserved-probability estimate. Each
  // probe is a full top-k evaluation: keep modest.
  size_t probability_samples = 300;
  uint64_t seed = 2014;
};

// Sampled characterization of the immutable region of a general
// scoring function around query q:
//   * PreservedAt(q') — the exact oracle (recomputes the top-k),
//   * boundary points along random rays (bisected to the first result
//     change; for non-convex regions this finds the nearest boundary
//     on each ray),
//   * min/mean boundary distance (approximate STB radius and a scale
//     summary),
//   * preserved_probability — Monte-Carlo estimate of the paper's
//     volume-ratio sensitivity measure.
class ApproxGir {
 public:
  // `tree` must outlive the returned object: PreservedAt re-runs the
  // top-k over it.
  static Result<ApproxGir> Compute(const FlatRTree& tree,
                                   const GeneralScoringFunction& fn,
                                   VecView q, size_t k,
                                   const ApproxGirOptions& options = {});

  // Exact membership test (one top-k evaluation).
  bool PreservedAt(VecView q2) const;

  const std::vector<RecordId>& result() const { return result_; }
  const std::vector<Vec>& boundary_points() const { return boundary_; }
  double min_boundary_distance() const { return min_distance_; }
  double mean_boundary_distance() const { return mean_distance_; }
  double preserved_probability() const { return preserved_probability_; }

 private:
  ApproxGir(const FlatRTree* tree, const GeneralScoringFunction* fn, Vec q,
            size_t k)
      : tree_(tree), fn_(fn), q_(std::move(q)), k_(k) {}

  const FlatRTree* tree_;
  const GeneralScoringFunction* fn_;
  Vec q_;
  size_t k_;
  std::vector<RecordId> result_;
  std::vector<Vec> boundary_;
  double min_distance_ = 0.0;
  double mean_distance_ = 0.0;
  double preserved_probability_ = 0.0;
};

}  // namespace gir

#endif  // GIR_GIR_APPROX_H_
