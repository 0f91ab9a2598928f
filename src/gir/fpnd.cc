#include "gir/fpnd.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/rng.h"
#include "skyline/dominance.h"
#include "topk/tree_kernels.h"

namespace gir {

IncidentStar::IncidentStar(Vec apex, double eps)
    : eps_(eps), dim_(apex.size()) {
  const Vec a = apex;  // keep a stable copy; points_ reallocates below
  points_.reserve(dim_ + 2);
  points_.push_back(std::move(apex));
  external_ids_.push_back(-1);
  // Dummy seeds: apex - c_i e_i, dominated by the apex, spanning a
  // full-dimensional simplex together with it.
  for (size_t i = 0; i < dim_; ++i) {
    Vec d = a;
    d[i] -= std::max(a[i], 0.5);
    points_.push_back(std::move(d));
    external_ids_.push_back(-1);
  }
  interior_.assign(dim_, 0.0);
  for (const Vec& p : points_) {
    for (size_t j = 0; j < dim_; ++j) interior_[j] += p[j];
  }
  for (double& x : interior_) x /= static_cast<double>(points_.size());

  // Initial star: the d simplex facets containing the apex.
  for (size_t omit = 1; omit <= dim_; ++omit) {
    StarFacet f;
    f.vertices.push_back(0);
    for (size_t i = 1; i <= dim_; ++i) {
      if (i != omit) f.vertices.push_back(static_cast<int>(i));
    }
    Result<Hyperplane> plane =
        FitHyperplane(points_, f.vertices, interior_);
    // The dummy simplex is non-degenerate by construction.
    assert(plane.ok());
    f.plane = std::move(plane).value();
    facets_.push_back(std::move(f));
    ++live_count_;
    RegisterFacet(static_cast<int>(facets_.size()) - 1);
  }
}

std::vector<int> IncidentStar::RidgeKey(const StarFacet& f,
                                        int omit_vertex) const {
  std::vector<int> key;
  key.reserve(dim_ - 2);
  for (int v : f.vertices) {
    if (v != 0 && v != omit_vertex) key.push_back(v);
  }
  std::sort(key.begin(), key.end());
  return key;
}

void IncidentStar::RegisterFacet(int facet_id) {
  const StarFacet& f = facets_[facet_id];
  for (int v : f.vertices) {
    if (v == 0) continue;
    ridges_[RidgeKey(f, v)].push_back(facet_id);
  }
}

void IncidentStar::UnregisterFacet(int facet_id) {
  const StarFacet& f = facets_[facet_id];
  for (int v : f.vertices) {
    if (v == 0) continue;
    auto it = ridges_.find(RidgeKey(f, v));
    if (it == ridges_.end()) continue;
    auto& vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), facet_id), vec.end());
    if (vec.empty()) ridges_.erase(it);
  }
}

Result<bool> IncidentStar::Insert(VecView p, int external_id) {
  // 1. Visibility scan over the (small) star.
  std::vector<int> visible;
  for (size_t f = 0; f < facets_.size(); ++f) {
    if (!facets_[f].alive) continue;
    if (facets_[f].plane.Evaluate(p) > eps_) {
      visible.push_back(static_cast<int>(f));
    }
  }
  if (visible.empty()) return false;
  std::set<int> visible_set(visible.begin(), visible.end());

  // 2. Horizon ridges containing the apex: shared between a visible and
  // a non-visible *incident* facet.
  struct Horizon {
    std::vector<int> ridge_vertices;  // includes the apex
  };
  std::vector<Horizon> horizon;
  for (int fid : visible) {
    const StarFacet& f = facets_[fid];
    for (int v : f.vertices) {
      if (v == 0) continue;
      auto it = ridges_.find(RidgeKey(f, v));
      if (it == ridges_.end() || it->second.size() != 2) {
        // Broken star invariant (every apex ridge joins exactly two
        // live facets); refuse the point before anything is mutated.
        return Status::Internal("incident star ridge not shared by 2 facets");
      }
      int other = it->second[0] == fid ? it->second[1] : it->second[0];
      if (visible_set.count(other)) continue;  // interior ridge
      Horizon h;
      h.ridge_vertices.push_back(0);
      for (int u : f.vertices) {
        if (u != 0 && u != v) h.ridge_vertices.push_back(u);
      }
      horizon.push_back(std::move(h));
    }
  }
  if (horizon.empty()) {
    // Would mean the apex stops being a hull vertex — impossible for
    // points with lower score than the apex; numerical pathology only.
    return Status::Internal("incident star lost its apex");
  }

  // 3. Fit all new facet planes BEFORE mutating anything, so a
  // degenerate fit leaves the star untouched.
  const int p_id = static_cast<int>(points_.size());
  points_.emplace_back(p.begin(), p.end());
  external_ids_.push_back(external_id);
  std::vector<StarFacet> fresh;
  for (const Horizon& h : horizon) {
    StarFacet nf;
    nf.vertices = h.ridge_vertices;
    nf.vertices.push_back(p_id);
    Result<Hyperplane> plane =
        FitHyperplane(points_, nf.vertices, interior_);
    if (!plane.ok()) {
      points_.pop_back();
      external_ids_.pop_back();
      return Status::FailedPrecondition("degenerate star facet fit");
    }
    nf.plane = std::move(plane).value();
    fresh.push_back(std::move(nf));
  }

  // 4. Commit: retire visible facets, attach the new ones.
  for (int fid : visible) {
    UnregisterFacet(fid);
    facets_[fid].alive = false;
    --live_count_;
  }
  for (StarFacet& nf : fresh) {
    facets_.push_back(std::move(nf));
    ++live_count_;
    RegisterFacet(static_cast<int>(facets_.size()) - 1);
  }
  return true;
}

std::vector<int> IncidentStar::CriticalRecordIds() const {
  std::set<int> ids;
  for (const StarFacet& f : facets_) {
    if (!f.alive) continue;
    for (int v : f.vertices) {
      if (external_ids_[v] >= 0) ids.insert(external_ids_[v]);
    }
  }
  return std::vector<int>(ids.begin(), ids.end());
}

double MaxDotTransformedBox(const ScoringFunction& scoring, const Mbb& box,
                            VecView normal) {
  double s = 0.0;
  for (size_t j = 0; j < normal.size(); ++j) {
    double glo = scoring.TransformDim(j, box.lo[j]);
    double ghi = scoring.TransformDim(j, box.hi[j]);
    s += std::max(normal[j] * glo, normal[j] * ghi);
  }
  return s;
}

namespace {

// Inserts a point into the star with a joggle-retry ladder; if every
// retry hits a degenerate fit, falls back to emitting the point's
// constraint directly (always sound, possibly redundant).
void InsertWithFallback(IncidentStar& star, const ScoringFunction& scoring,
                        const Dataset& data, RecordId id, Rng& joggle_rng,
                        GirRegion* region, const Vec& gk, int position) {
  Vec g = scoring.Transform(data.Get(id));
  Result<bool> r = star.Insert(g, id);
  for (int attempt = 1; attempt < 3 && !r.ok(); ++attempt) {
    Vec candidate = g;
    for (double& x : candidate) {
      x += joggle_rng.Uniform(-1e-11, 1e-11) * (1 << attempt);
    }
    r = star.Insert(candidate, id);
  }
  if (r.ok()) return;
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = position;
  prov.challenger = id;
  region->AddConstraint(Sub(gk, g), prov);
}

}  // namespace

Result<Phase2Output> RunFpNdPhase2(const FlatRTree& tree,
                                   const ScoringFunction& scoring,
                                   VecView weights, const TopKResult& topk,
                                   GirRegion* region,
                                   const FpOptions& options) {
  const Dataset& data = tree.dataset();
  const size_t dim = data.dim();
  if (topk.result.empty()) {
    return Status::InvalidArgument("empty top-k result");
  }
  IoStats before = DiskManager::ThreadStats();
  const RecordId pk = topk.result.back();
  const int position = static_cast<int>(topk.result.size()) - 1;
  VecView pk_raw = data.Get(pk);
  Vec gk = scoring.Transform(pk_raw);
  IncidentStar star(gk, options.eps);
  Rng joggle_rng(0xFACE7);

  // Footnote-7 tightening: vertices of the interim Phase-1 region
  // (its constraints are already in `region`). A record p whose
  // constraint (g_k - g(p))·v >= 0 holds at every vertex v is redundant
  // inside the final intersection and can be skipped outright.
  std::vector<Vec> cone_vertices;
  if (options.phase1_tightening && !region->constraints().empty()) {
    Result<IntersectionResult> cone =
        IntersectHalfspaces(region->AsHalfspaces(), region->query());
    if (cone.ok() && !cone->polytope.empty()) {
      cone_vertices = cone->polytope.vertices();
      // The cone's interior point warm-starts the final region
      // materialization: the Phase-2 constraints usually leave it
      // feasible, so the engine's intersection skips its LP.
      region->SeedInteriorWitness(cone->interior);
    }
  }
  auto record_redundant_in_cone = [&](const Vec& g) {
    if (cone_vertices.empty()) return false;
    for (const Vec& v : cone_vertices) {
      if (Dot(gk, v) < Dot(g, v)) return false;
    }
    return true;
  };
  auto box_redundant_in_cone = [&](const Mbb& box) {
    if (cone_vertices.empty()) return false;
    for (const Vec& v : cone_vertices) {
      if (MaxDotTransformedBox(scoring, box, v) > Dot(gk, v)) return false;
    }
    return true;
  };

  // --- First step: the encountered set T (paper §6.3.1). ---
  std::vector<RecordId> order;
  order.reserve(topk.encountered.size());
  std::vector<bool> taken(topk.encountered.size(), false);
  if (options.max_coordinate_seeding) {
    // Process the per-dimension maxima of T first.
    for (size_t j = 0; j < dim; ++j) {
      int best = -1;
      double best_val = -1e300;
      for (size_t i = 0; i < topk.encountered.size(); ++i) {
        if (taken[i]) continue;
        double v = data.Get(topk.encountered[i])[j];
        if (v > best_val) {
          best_val = v;
          best = static_cast<int>(i);
        }
      }
      if (best >= 0) {
        taken[best] = true;
        order.push_back(topk.encountered[best]);
      }
    }
  }
  for (size_t i = 0; i < topk.encountered.size(); ++i) {
    if (!taken[i]) order.push_back(topk.encountered[i]);
  }
  auto process_record = [&](RecordId id) {
    if (Dominates(pk_raw, data.Get(id))) return;  // paper's pre-filter
    if (options.phase1_tightening &&
        record_redundant_in_cone(scoring.Transform(data.Get(id)))) {
      return;  // footnote 7: redundant inside the Phase-1 cone
    }
    InsertWithFallback(star, scoring, data, id, joggle_rng, region, gk,
                       position);
  };
  for (RecordId id : order) process_record(id);

  // --- Second step: refine from disk via the retained BRS heap. ---
  std::vector<PendingNode> heap = topk.pending;
  PendingNodeLess less;
  std::make_heap(heap.begin(), heap.end(), less);
  ScoreBuffer buf;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), less);
    PendingNode top = std::move(heap.back());
    heap.pop_back();
    bool prunable = star.BoxBelowAllFacets([&](const Vec& normal) {
      return MaxDotTransformedBox(scoring, top.mbb, normal);
    });
    if (prunable || box_redundant_in_cone(top.mbb)) continue;
    const FlatRTree::NodeView node = tree.ReadNode(top.page);
    const size_t count = node.count();
    if (node.is_leaf()) {
      for (size_t i = 0; i < count; ++i) {
        process_record(node.child(i));
      }
    } else {
      ComputeEntryScores(scoring, data, node, weights, &buf);
      for (size_t i = 0; i < count; ++i) {
        PendingNode pn;
        pn.maxscore = buf.scores[i];
        pn.page = static_cast<PageId>(node.child(i));
        pn.mbb = node.EntryMbb(i);
        heap.push_back(std::move(pn));
        std::push_heap(heap.begin(), heap.end(), less);
      }
    }
  }

  // --- Emit one half-space per critical record. ---
  std::vector<int> critical = star.CriticalRecordIds();
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = position;
  for (int id : critical) {
    prov.challenger = id;
    region->AddConstraint(
        Sub(gk, scoring.Transform(data.Get(static_cast<RecordId>(id)))),
        prov);
  }
  Phase2Output out;
  out.candidates = critical.size();
  out.star_facets = star.live_facet_count();
  out.io = DiskManager::ThreadStats() - before;
  return out;
}

}  // namespace gir
