#include "skyline/bbs.h"

#include <algorithm>

#include "skyline/dominance.h"

namespace gir {

SkylineResult ContinueSkylineFromBrs(const FlatRTree& tree,
                                     const ScoringFunction& scoring,
                                     VecView weights, const TopKResult& brs) {
  const Dataset& data = tree.dataset();
  IoStats before = DiskManager::ThreadStats();
  SkylineSet sl(&data);
  // Seed with the skyline of the encountered set T (all in memory).
  // Processing in decreasing score order inserts likely-dominating
  // records first, which keeps eviction work low. Scores are computed
  // once up front instead of inside the sort comparator.
  std::vector<RecordId> t_sorted = brs.encountered;
  std::vector<double> t_scores(t_sorted.size());
  for (size_t i = 0; i < t_sorted.size(); ++i) {
    t_scores[i] = scoring.Score(data.Get(t_sorted[i]), weights);
  }
  std::vector<size_t> order(t_sorted.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return t_scores[a] > t_scores[b];
  });
  for (size_t i : order) sl.Insert(t_sorted[i]);

  // Resume from the retained BRS heap.
  std::vector<PendingNode> heap = brs.pending;
  PendingNodeLess less;
  std::make_heap(heap.begin(), heap.end(), less);
  Vec corner;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    PendingNode top = std::move(heap.back());
    heap.pop_back();
    // BBS pruning: a node whose top corner is dominated can contain no
    // skyline record.
    if (sl.DominatedByMember(top.mbb.TopCorner())) continue;
    const FlatRTree::NodeView node = tree.ReadNode(top.page);
    const size_t count = node.count();
    if (node.is_leaf()) {
      for (size_t i = 0; i < count; ++i) {
        sl.Insert(node.child(i));
      }
    } else {
      // Dominance-prune before scoring: late in the run most entries
      // are dominated, so batching scores for all of them first would
      // be wasted work (the dominance scan itself dwarfs one d-term
      // score for the few survivors).
      for (size_t i = 0; i < count; ++i) {
        node.EntryTopCorner(i, &corner);
        if (sl.DominatedByMember(corner)) continue;
        PendingNode pn;
        pn.mbb = node.EntryMbb(i);
        pn.maxscore = scoring.MaxScore(pn.mbb, weights);
        pn.page = static_cast<PageId>(node.child(i));
        heap.push_back(std::move(pn));
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }
  SkylineResult out;
  out.skyline = sl.members();
  std::sort(out.skyline.begin(), out.skyline.end());
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace gir
