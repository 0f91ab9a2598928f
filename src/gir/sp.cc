#include "gir/sp.h"

#include "skyline/bbs.h"

namespace gir {

Phase2Output RunSpPhase2(const FlatRTree& tree, const ScoringFunction& scoring,
                         VecView weights, const TopKResult& topk,
                         GirRegion* region) {
  const Dataset& data = tree.dataset();
  SkylineResult sl = ContinueSkylineFromBrs(tree, scoring, weights, topk);
  const RecordId pk = topk.result.back();
  Vec gk = scoring.Transform(data.Get(pk));
  ConstraintProvenance prov;
  prov.kind = ConstraintProvenance::Kind::kOvertake;
  prov.position = static_cast<int>(topk.result.size()) - 1;
  for (RecordId p : sl.skyline) {
    prov.challenger = p;
    region->AddConstraint(Sub(gk, scoring.Transform(data.Get(p))), prov);
  }
  Phase2Output out;
  out.candidates = sl.skyline.size();
  out.io = sl.io;
  return out;
}

}  // namespace gir
