#ifndef GIR_TOPK_TREE_KERNELS_H_
#define GIR_TOPK_TREE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "index/flat_rtree.h"
#include "topk/scoring.h"

namespace gir {

// Batched entry-scoring kernels over one frozen node. Every query-path
// traversal (BRS, the BBS continuation, the SP/CP/FP Phase-2 refinement
// and GIR*) runs over the FlatRTree and bounds a node's entries here:
// one streaming pass per SoA hi plane instead of a per-entry virtual
// Score/MaxScore call.
//
// Score contract: the kernels accumulate dimensions in the same order
// as ScoringFunction::Score/MaxScore, with plain mul+add on every SIMD
// tier, so each entry's value is bitwise equal to Score() of its record
// (leaves) or MaxScore() of its box (internal nodes). flat_rtree_test
// asserts this over every node of frozen trees, so heap order, pruning
// and I/O are exactly those of the per-entry formulation.

// Reusable per-traversal workspace for the score kernels, so the hot
// loop never reallocates.
struct ScoreBuffer {
  std::vector<double> scores;
  std::vector<double> scratch;
};

// Fills buf->scores with one score per entry: the record score for leaf
// entries (a leaf MBB is its point, so hi == the record), the maxscore
// upper bound for internal entries. Streams the SoA hi planes: for
// each dimension j, scores[e] += w_j * g_j(hi_j[e]). One tight loop per
// plane, no per-entry virtual calls — this is the kernel gcc/clang
// auto-vectorize under GIR_NATIVE_ARCH.
void ComputeEntryScores(const ScoringFunction& scoring, const Dataset& data,
                        const FlatRTree::NodeView& node, VecView weights,
                        ScoreBuffer* buf);

// Workspace of the multi-query scorer: the row-major score matrix plus
// the shared transformed plane and the per-dimension weight gather.
// Reused across nodes and groups, so the steady-state loop never
// allocates.
struct MultiScoreBuffer {
  std::vector<double> scores;   // m rows of node.count() scores each
  std::vector<double> scratch;  // one transformed plane, shared by rows
  std::vector<double> wgather;  // w[r][j] gathered per dimension
};

// Scores one frozen node against a whole query group at once: row r of
// buf->scores receives the same entry scores ComputeEntryScores would
// produce for weight vector weights[r] (bitwise — same per-dimension
// accumulation order, same transform values, plain mul+add on every
// SIMD tier). The amortization over the per-query kernel is structural:
// each dimension plane is transformed once for the whole group instead
// of once per query, and simd::MaxDotPlaneMulti streams the plane
// against all rows with shared loads. Every weights[r] must have
// node-dimensionality size.
void ComputeEntryScoresMulti(const ScoringFunction& scoring,
                             const FlatRTree::NodeView& node,
                             const VecView* weights, size_t m,
                             MultiScoreBuffer* buf);

}  // namespace gir

#endif  // GIR_TOPK_TREE_KERNELS_H_
