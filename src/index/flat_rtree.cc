#include "index/flat_rtree.h"

#include <cassert>
#include <utility>

#include "common/simd.h"

namespace gir {

Mbb FlatRTree::NodeView::EntryMbb(size_t e) const {
  Mbb box;
  box.lo.resize(dim_);
  box.hi.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    box.lo[j] = lo(j)[e];
    box.hi[j] = hi(j)[e];
  }
  return box;
}

void FlatRTree::NodeView::EntryMbbInto(size_t e, Mbb* out) const {
  out->lo.resize(dim_);
  out->hi.resize(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    out->lo[j] = lo(j)[e];
    out->hi[j] = hi(j)[e];
  }
}

void FlatRTree::NodeView::EntryTopCorner(size_t e, Vec* out) const {
  out->resize(dim_);
  for (size_t j = 0; j < dim_; ++j) (*out)[j] = hi(j)[e];
}

FlatRTree& FlatRTree::operator=(FlatRTree&& other) noexcept {
  dataset_ = other.dataset_;
  disk_ = other.disk_;
  dim_ = other.dim_;
  capacity_ = other.capacity_;
  node_stride_ = other.node_stride_;
  coords_ = std::move(other.coords_);
  children_ = std::move(other.children_);
  arena_ = std::move(other.arena_);
  meta_ = std::move(other.meta_);
  root_ = other.root_;
  record_count_ = other.record_count_;
  // Vector moves transfer the heap buffers, so re-anchoring on our own
  // vectors keeps the owned case valid; the mapped case keeps the
  // source's (mapping-stable) pointers.
  coords_base_ = arena_ != nullptr ? other.coords_base_ : coords_.data();
  children_base_ =
      arena_ != nullptr ? other.children_base_ : children_.data();
  other.coords_base_ = nullptr;
  other.children_base_ = nullptr;
  return *this;
}

FlatRTree FlatRTree::Freeze(const RTree& tree,
                            const Dataset* dataset_override) {
  FlatRTree flat;
  flat.dataset_ = dataset_override != nullptr ? dataset_override
                                              : &tree.dataset();
  flat.disk_ = tree.disk();
  flat.dim_ = tree.dataset().dim();
  flat.capacity_ = tree.Capacity();
  flat.node_stride_ = 2 * flat.dim_ * flat.capacity_;
  flat.root_ = tree.root();
  flat.record_count_ = tree.size();

  const size_t n = tree.node_count();
  flat.coords_.assign(n * flat.node_stride_, 0.0);
  flat.children_.assign(n * flat.capacity_, -1);
  flat.meta_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const RTreeNode& node = tree.PeekNode(static_cast<PageId>(p));
    assert(node.entries.size() <= flat.capacity_);
    FlatNodeMeta& meta = flat.meta_[p];
    meta.count = static_cast<uint32_t>(node.entries.size());
    meta.level = node.level;
    meta.is_leaf = node.is_leaf;
    meta.mbb = node.ComputeMbb(flat.dim_);
    double* coords = flat.coords_.data() + p * flat.node_stride_;
    int32_t* children = flat.children_.data() + p * flat.capacity_;
    for (size_t e = 0; e < node.entries.size(); ++e) {
      const RTreeEntry& entry = node.entries[e];
      children[e] = entry.child;
      for (size_t j = 0; j < flat.dim_; ++j) {
        coords[j * flat.capacity_ + e] = entry.mbb.lo[j];
        coords[(flat.dim_ + j) * flat.capacity_ + e] = entry.mbb.hi[j];
      }
    }
  }
  flat.coords_base_ = flat.coords_.data();
  flat.children_base_ = flat.children_.data();
  return flat;
}

Result<FlatRTree> FlatRTree::FromArena(
    std::shared_ptr<const ArenaFile> arena, const Dataset* dataset,
    DiskManager* disk) {
  if (arena == nullptr || dataset == nullptr || disk == nullptr) {
    return Status::InvalidArgument("FromArena needs arena, dataset, disk");
  }
  if (dataset->dim() != arena->dim() ||
      dataset->size() != arena->dataset_rows()) {
    return Status::InvalidArgument(
        "dataset shape does not match the arena header");
  }
  FlatRTree flat;
  flat.dataset_ = dataset;
  flat.disk_ = disk;
  flat.dim_ = arena->dim();
  flat.capacity_ = arena->capacity();
  flat.node_stride_ = 2 * flat.dim_ * flat.capacity_;
  flat.root_ = arena->root() < 0 ? kInvalidPage
                                 : static_cast<PageId>(arena->root());
  flat.record_count_ = arena->record_count();
  // Hot arrays: straight into the mapping, zero copy.
  flat.coords_base_ = arena->coords();
  flat.children_base_ = arena->children();
  // Per-node metadata: the POD headers plus the MBB planes are small
  // (O(nodes * dim)), rebuilt on the heap because FlatNodeMeta carries
  // an allocated Mbb. Child page ids must stay inside the arena and
  // leaf record ids inside the dataset — a valid CRC proves integrity,
  // not semantics, so the structural checks here are what keeps a
  // hostile-but-checksummed file from walking a traversal (or a
  // scoring, RangeQuery or Thaw read) out of bounds.
  const size_t n = arena->node_count();
  const int64_t node_limit = static_cast<int64_t>(n);
  const int64_t record_limit = static_cast<int64_t>(dataset->size());
  flat.meta_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const ArenaNodeMeta& m = arena->node_meta()[p];
    if (m.count > flat.capacity_) {
      return Status::DataLoss("arena node entry count exceeds capacity");
    }
    FlatNodeMeta& meta = flat.meta_[p];
    meta.count = m.count;
    meta.level = m.level;
    meta.is_leaf = m.is_leaf != 0;
    const double* box = arena->node_mbbs() + p * 2 * flat.dim_;
    meta.mbb.lo.assign(box, box + flat.dim_);
    meta.mbb.hi.assign(box + flat.dim_, box + 2 * flat.dim_);
    const int32_t* children = flat.children_base_ + p * flat.capacity_;
    const int64_t limit = meta.is_leaf ? record_limit : node_limit;
    for (uint32_t e = 0; e < m.count; ++e) {
      if (children[e] < 0 || children[e] >= limit) {
        return Status::DataLoss(meta.is_leaf
                                    ? "arena leaf record id out of range"
                                    : "arena child page id out of range");
      }
    }
  }
  flat.arena_ = std::move(arena);
  return flat;
}

Result<RTree> FlatRTree::Thaw(const Dataset* dataset,
                              DiskManager* disk) const {
  if (dataset == nullptr || disk == nullptr) {
    return Status::InvalidArgument("Thaw needs a dataset and a disk");
  }
  if (dataset->dim() != dim_) {
    return Status::InvalidArgument(
        "dataset dimensionality does not match the image");
  }
  if (RTree(dataset, disk).Capacity() != capacity_) {
    return Status::InvalidArgument(
        "disk page size does not match the image's node capacity");
  }
  if (disk->allocated_pages() != 0) {
    return Status::FailedPrecondition(
        "Thaw needs a disk with no allocated pages");
  }
  std::vector<RTreeNode> nodes(meta_.size());
  for (size_t p = 0; p < nodes.size(); ++p) {
    const NodeView view = PeekNode(static_cast<PageId>(p));
    RTreeNode& node = nodes[p];
    node.is_leaf = view.is_leaf();
    node.level = view.level();
    node.entries.resize(view.count());
    for (size_t e = 0; e < view.count(); ++e) {
      node.entries[e].child = view.child(e);
      view.EntryMbbInto(e, &node.entries[e].mbb);
    }
  }
  return RTree::FromParts(dataset, disk, std::move(nodes), root_,
                          record_count_);
}

size_t FlatRTree::height() const {
  if (root_ == kInvalidPage) return 0;
  return static_cast<size_t>(meta_[root_].level) + 1;
}

std::vector<RecordId> FlatRTree::RangeQuery(const Mbb& box) const {
  std::vector<RecordId> out;
  if (root_ == kInvalidPage) return out;
  std::vector<PageId> stack = {root_};
  // Per-node interval-overlap sweep over the SoA planes: one
  // SIMD-dispatched pass per dimension narrows the survivor mask, so
  // the per-entry branch only runs for boxes that truly overlap.
  std::vector<uint8_t> mask;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    NodeView node = PeekNode(page);
    const size_t count = node.count();
    mask.assign(count, 1);
    for (size_t j = 0; j < dim_; ++j) {
      simd::IntervalOverlapMask(node.lo(j), node.hi(j), box.lo[j], box.hi[j],
                                mask.data(), count);
    }
    for (size_t e = 0; e < count; ++e) {
      if (!mask[e]) continue;
      if (node.is_leaf()) {
        out.push_back(node.child(e));
      } else {
        stack.push_back(static_cast<PageId>(node.child(e)));
      }
    }
  }
  return out;
}

}  // namespace gir
