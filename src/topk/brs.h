#ifndef GIR_TOPK_BRS_H_
#define GIR_TOPK_BRS_H_

#include <vector>

#include "common/result.h"
#include "index/flat_rtree.h"
#include "storage/io_stats.h"
#include "topk/scoring.h"
#include "topk/tree_kernels.h"

namespace gir {

// An R-tree node left unexplored by BRS, keyed by its maxscore. The
// GIR Phase-2 algorithms resume the search from these.
struct PendingNode {
  double maxscore = 0.0;
  PageId page = kInvalidPage;
  Mbb mbb;
};

struct PendingNodeLess {
  bool operator()(const PendingNode& a, const PendingNode& b) const {
    return a.maxscore < b.maxscore;  // max-heap
  }
};

// Output of BRS: the ordered top-k plus everything Phase 2 needs — the
// set T of non-result records already fetched from disk, and the search
// heap of unexplored nodes (paper Section 3.3).
struct TopKResult {
  std::vector<RecordId> result;  // decreasing score order
  std::vector<double> scores;    // aligned with `result`
  std::vector<RecordId> encountered;  // T: fetched non-result records
  std::vector<PendingNode> pending;   // heap ordered by PendingNodeLess
  IoStats io;                         // page reads charged by this run
};

// Branch-and-bound Ranked Search (Tao et al., Inf. Syst. 2007): an
// I/O-optimal top-k over an R-tree for monotone scoring functions. A
// max-heap holds node entries keyed by maxscore and records keyed by
// score; popped records are final results.
//
// Returns InvalidArgument for k == 0 or weight dimensionality mismatch.
// When the dataset has fewer than k records, returns them all. Node
// entries are bounded by the batched SoA score kernels, and every node
// expansion is one checked FetchPage, so an attached fault plan fails
// the run with the read's status.
Result<TopKResult> RunBrs(const FlatRTree& tree,
                          const ScoringFunction& scoring, VecView weights,
                          size_t k);

// ----- shared-traversal multi-query executor -----

// One query of a shared-traversal group. The weight storage must stay
// alive across the RunBrsMulti call.
struct BrsMultiQuery {
  VecView weights;
  size_t k = 0;
};

// Group-level accounting of one RunBrsMulti call. Per-query TopKResult
// io carries the *charged* reads (what a solo run would have paid);
// these fields carry what the group actually did.
struct BrsMultiStats {
  uint64_t unique_reads = 0;   // physical page reads performed (and
                               // charged to the DiskManager) — first
                               // touch of each page per group
  uint64_t charged_reads = 0;  // sum of the per-query logical charges
  uint64_t rounds = 0;         // lockstep expansion rounds
  uint64_t node_expansions = 0;  // (query, node) pairs expanded
  uint64_t read_faults = 0;    // page fetches failed by the fault plan
  // Frontier prefetch over an mmap'd arena (all zero on heap images):
  // pages madvise'd ahead of their round, and of this group's unique
  // fetches, how many found their mapped page already resident vs. had
  // to fault it in synchronously.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
};

// Per-call knobs of the shared-traversal executor.
struct BrsMultiOptions {
  // Issue madvise(MADV_WILLNEED) for a round's whole union page set
  // before fetching/scoring its first page, so the kernel's readahead
  // overlaps the round's SIMD scoring. Only acts on arena-backed
  // images; never changes results, only page-in timing.
  bool prefetch = true;
};

// Heap entry of the shared executor: plain data only, so the pooled
// per-query heaps never allocate per push. A node entry remembers the
// parent page + slot it came from, letting the pending-node drain
// materialize its Mbb on demand (bitwise equal to the solo path's
// retained copy) instead of storing boxes in the heap.
struct MultiHeapEntry {
  double key = 0.0;
  int32_t id = 0;  // PageId for nodes, RecordId for records
  bool is_node = false;
  PageId parent = kInvalidPage;  // node entries: page holding the entry
  uint32_t slot = 0;             // node entries: index within parent
};

// Pooled scratch of the shared-traversal executor, recycled across
// groups with the same discipline as LpWorkspace: buffers only ever
// grow, so once warmed on a workload shape the executor performs zero
// steady-state heap allocations (asserted by batch_shared_test with a
// global operator-new counter). All members are internal to
// RunBrsMulti; callers just keep the object alive between calls.
struct BrsFrontierArena {
  struct QuerySlot {
    std::vector<MultiHeapEntry> heap;  // binary heap, HeapEntryLess order
    std::vector<RecordId> fetched;     // leaf records pulled into memory
  };
  struct Demand {
    PageId page = kInvalidPage;
    uint32_t query = 0;
  };
  std::vector<QuerySlot> queries;   // grown to the widest group seen
  std::vector<uint32_t> visit_stamp;  // per page: serial of last visit
  uint32_t serial = 0;
  std::vector<Demand> demands;      // one round's (page, query) pairs
  std::vector<PageId> prefetch_pages;  // round's unique unfetched pages
  std::vector<VecView> weight_rows;  // gathered weights of one page run
  std::vector<uint32_t> run_queries;  // query index per weight row
  std::vector<RecordId> sort_scratch;  // result ids, sorted, per drain
  std::vector<uint32_t> charged;    // per query: node expansions so far
  std::vector<uint8_t> active;
  MultiScoreBuffer scores;
  // Batch-engine group scratch, pooled with the rest of the arena: the
  // per-group query list and the RunBrsMulti output slots (their inner
  // buffers are moved into the per-query results downstream, so the
  // recycled part is the outer vectors plus whatever capacity the
  // moves leave behind).
  std::vector<BrsMultiQuery> group;
  std::vector<TopKResult> results;
  std::vector<Status> statuses;  // per-query fault sink of one group
  // Buffer growths since construction; 0 across a steady-state stretch.
  size_t grow_events = 0;
};

// Shared-traversal BRS over one frozen tree: runs every query's
// branch-and-bound search in lockstep rounds — each round expands
// exactly one node per still-active query, after draining the records
// above it — so each query's pop sequence, heap contents, termination
// point and drained pending/encountered sets are exactly those of a
// solo RunBrs. The sharing is across queries: all queries demanding the
// same page in a round score its SoA planes in one
// ComputeEntryScoresMulti call, and a page already fetched for any
// group member earlier is re-served from memory without touching the
// DiskManager. Each query's io is *charged* as if it ran alone
// (io.reads == its node expansions, bit-identical to RunBrs), while
// `stats` reports the amortized physical reads actually performed.
//
// (*out)[i] receives query i's TopKResult; `out` is resized up (never
// shrunk), and a retained `out` re-fills its vectors in place, so a
// caller that keeps arena + out across calls reaches the zero-alloc
// steady state. Returns InvalidArgument (before any work) when any
// query has k == 0 or mismatched weight dimensionality.
//
// Fault containment: page fetches go through DiskManager::ReadPage, so
// an attached fault plan can fail them. With `statuses` supplied
// (resized to one Status per query, Ok by default), a failed fetch
// degrades exactly the queries demanding that page — their statuses
// carry the fault, their results are emptied — while every other group
// member completes untouched, bit-identical to a run without the
// faulted queries. With statuses == nullptr a fault fails the whole
// call (the pre-fault all-or-nothing contract).
Status RunBrsMulti(const FlatRTree& tree, const ScoringFunction& scoring,
                   const std::vector<BrsMultiQuery>& queries,
                   BrsFrontierArena* arena, std::vector<TopKResult>* out,
                   BrsMultiStats* stats = nullptr,
                   std::vector<Status>* statuses = nullptr,
                   const BrsMultiOptions& options = {});

}  // namespace gir

#endif  // GIR_TOPK_BRS_H_
