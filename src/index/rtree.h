#ifndef GIR_INDEX_RTREE_H_
#define GIR_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "index/mbb.h"
#include "storage/disk_manager.h"

namespace gir {

// One slot of an R-tree node: for internal nodes `child` is a PageId,
// for leaves it is a RecordId (and the MBB is the point itself).
struct RTreeEntry {
  Mbb mbb;
  int32_t child = -1;
};

// An R-tree node, sized to fit one disk page.
struct RTreeNode {
  bool is_leaf = true;
  int level = 0;  // 0 = leaf
  std::vector<RTreeEntry> entries;

  Mbb ComputeMbb(size_t dim) const;
};

struct RTreeOptions {
  // Fraction of capacity below which nodes are considered underfull.
  double min_fill = 0.4;
  // R*: fraction of entries forcibly reinserted on first overflow.
  double reinsert_fraction = 0.3;
};

// Disk-resident R*-tree over a Dataset (Beckmann et al., SIGMOD 1990):
// ChooseSubtree with minimum overlap enlargement at the leaf level,
// forced reinsertion on first overflow per level, and the R* topological
// split (axis by margin sum, distribution by overlap then area). An STR
// bulk loader (Leutenegger et al.) is provided for benchmark-scale
// construction.
//
// This is the mutable build/update master only. Queries run over its
// frozen image (FlatRTree::Freeze), whose node accesses charge the page
// reads of the paper's disk model; the master has no accounted read
// path, so no traversal can charge I/O against it.
class RTree {
 public:
  // Builds an empty tree. `dataset` and `disk` must outlive the tree.
  RTree(const Dataset* dataset, DiskManager* disk,
        const RTreeOptions& options = {});

  // Inserts one record (R* insertion with forced reinsert).
  void Insert(RecordId id);

  // Removes one record (Guttman FindLeaf + CondenseTree with R*
  // reinsertion of orphaned entries): underfull nodes along the
  // deletion path are dissolved and their entries reinserted at their
  // original level; a single-child root is collapsed. Freed pages go on
  // a free list and are reused by later splits, so the page arena stays
  // bounded under sustained update churn. Returns false when the record
  // is not in the tree.
  bool Delete(RecordId id);

  // True when the record is present in a leaf (same FindLeaf walk as
  // Delete, no mutation). ApplyUpdates probes every delete id with this
  // *before* mutating anything, so a broken index invariant rejects the
  // whole batch instead of leaving earlier deletes applied.
  bool Contains(RecordId id) const;

  // Sort-Tile-Recursive bulk load of the live records of the dataset
  // (tombstoned records are skipped).
  static RTree BulkLoad(const Dataset* dataset, DiskManager* disk,
                        const RTreeOptions& options = {});

  // Reassembles a tree from explicit nodes (used by FlatRTree::Thaw
  // when restoring a persisted arena; not part of the query API). Page
  // ids are re-allocated densely in node order; pages unreachable from
  // the root (slots a pre-persist Delete dissolved) are recovered onto
  // the free list.
  static RTree FromParts(const Dataset* dataset, DiskManager* disk,
                         std::vector<RTreeNode> nodes, PageId root,
                         size_t record_count);

  // Accounting-free node access for Freeze, tests and validation.
  const RTreeNode& PeekNode(PageId page) const { return nodes_[page]; }

  PageId root() const { return root_; }
  size_t height() const;  // number of levels (1 = root is a leaf)
  size_t size() const { return record_count_; }
  size_t node_count() const { return nodes_.size(); }

  // Max entries per node, derived from the page size: each entry costs
  // 2*d*8 bytes of MBB plus 4 bytes of child id, and the node header is
  // 16 bytes.
  size_t Capacity() const { return capacity_; }

  // All record ids whose point intersects `box` (accounting-free; used
  // by tests to cross-check against linear scans).
  std::vector<RecordId> RangeQuery(const Mbb& box) const;

  // Structural invariants: MBB containment, fill factors, level
  // consistency, record multiset equality. Used by tests.
  Status Validate() const;

  const Dataset& dataset() const { return *dataset_; }
  DiskManager* disk() const { return disk_; }

 private:
  PageId NewNode(bool is_leaf, int level);
  void FreeNode(PageId page);
  Mbb EntryMbbOf(const RTreeNode& node) const;

  // Deletion machinery.
  bool FindLeaf(PageId page, const Mbb& point, RecordId id,
                std::vector<PageId>* path) const;
  void CondenseTree(std::vector<PageId> path);

  // R* machinery.
  PageId ChooseSubtree(const Mbb& box, int target_level,
                       std::vector<PageId>* path) const;
  void InsertEntry(RTreeEntry entry, int target_level, int reinsert_depth);
  void OverflowTreatment(PageId page, std::vector<PageId>& path,
                         int reinsert_depth);
  void Reinsert(PageId page, std::vector<PageId>& path, int reinsert_depth);
  void Split(PageId page, std::vector<PageId>& path);
  // R* split choice: returns the entries partitioned into two groups.
  static void ChooseSplit(std::vector<RTreeEntry>& entries, size_t dim,
                          size_t min_fill, std::vector<RTreeEntry>* left,
                          std::vector<RTreeEntry>* right);
  void RefreshPathMbbs(const std::vector<PageId>& path, PageId child);

  const Dataset* dataset_;
  DiskManager* disk_;
  RTreeOptions options_;
  size_t capacity_;
  size_t min_entries_;
  std::vector<RTreeNode> nodes_;
  // Dissolved by CondenseTree, reusable; sorted ascending.
  std::vector<PageId> free_pages_;
  PageId root_ = kInvalidPage;
  size_t record_count_ = 0;
  bool bulk_loaded_ = false;
};

}  // namespace gir

#endif  // GIR_INDEX_RTREE_H_
