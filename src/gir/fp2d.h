#ifndef GIR_GIR_FP2D_H_
#define GIR_GIR_FP2D_H_

#include "common/result.h"
#include "gir/sp.h"

namespace gir {

// Facet Pruning specialised to d == 2 (paper §6.2, Algorithm 1): the
// sweeping line pinned at p_k may rotate clockwise and anticlockwise;
// the first record hit in each direction is critical. The first step
// scans the encountered set T for the extreme rotation angles; the
// second step refines the two interim facets from disk, pruning every
// node whose MBB lies below both facet lines.
//
// Works in the transformed data space, so it supports any scoring
// function of the sum-of-monotone-terms family.
Result<Phase2Output> RunFp2dPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region);

}  // namespace gir

#endif  // GIR_GIR_FP2D_H_
