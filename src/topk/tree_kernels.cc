#include "topk/tree_kernels.h"

#include "common/simd.h"

namespace gir {

void ComputeEntryScores(const ScoringFunction& scoring, const Dataset& data,
                        const FlatRTree::NodeView& node, VecView weights,
                        ScoreBuffer* buf) {
  (void)data;
  const size_t n = node.count();
  buf->scores.assign(n, 0.0);
  double* out = buf->scores.data();
  const bool identity = scoring.IsIdentityTransform();
  if (!identity) buf->scratch.resize(n);
  for (size_t j = 0; j < weights.size(); ++j) {
    const double wj = weights[j];
    const double* hi = node.hi(j);
    if (identity) {
      simd::Axpy(wj, hi, out, n);
    } else {
      scoring.TransformDimBatch(j, hi, n, buf->scratch.data());
      simd::Axpy(wj, buf->scratch.data(), out, n);
    }
  }
}

void ComputeEntryScoresMulti(const ScoringFunction& scoring,
                             const FlatRTree::NodeView& node,
                             const VecView* weights, size_t m,
                             MultiScoreBuffer* buf) {
  const size_t n = node.count();
  const size_t dim = scoring.dim();
  buf->scores.assign(m * n, 0.0);
  if (buf->wgather.size() < m) buf->wgather.resize(m);
  const bool identity = scoring.IsIdentityTransform();
  if (!identity && buf->scratch.size() < n) buf->scratch.resize(n);
  for (size_t j = 0; j < dim; ++j) {
    const double* hi = node.hi(j);
    const double* src = hi;
    if (!identity) {
      // One transform of the plane serves every query in the group.
      scoring.TransformDimBatch(j, hi, n, buf->scratch.data());
      src = buf->scratch.data();
    }
    for (size_t r = 0; r < m; ++r) buf->wgather[r] = weights[r][j];
    simd::MaxDotPlaneMulti(buf->wgather.data(), m, src, buf->scores.data(),
                           n, n);
  }
}

}  // namespace gir
