#ifndef GIR_GIR_SP_H_
#define GIR_GIR_SP_H_

#include "gir/gir_region.h"
#include "storage/io_stats.h"
#include "topk/brs.h"

namespace gir {

// What a Phase-2 method reports back to the engine/benchmarks.
struct Phase2Output {
  // Non-result records whose half-spaces were added to the region
  // (|SL| for SP, |SL ∩ CH| for CP, #critical for FP).
  size_t candidates = 0;
  // FP only: live facets of the incident star when the run finished
  // (the quantity of paper Figure 8(b)).
  size_t star_facets = 0;
  IoStats io;
};

// Skyline Pruning (paper §5.1): Phase 2 considers exactly the skyline
// SL of D \ R, computed by the BBS continuation from the retained BRS
// heap. Valid for every monotone scoring function.
Phase2Output RunSpPhase2(const FlatRTree& tree, const ScoringFunction& scoring,
                         VecView weights, const TopKResult& topk,
                         GirRegion* region);

}  // namespace gir

#endif  // GIR_GIR_SP_H_
