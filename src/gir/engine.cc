#include "gir/engine.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "common/stopwatch.h"
#include "dataset/csv.h"
#include "gir/brute_force.h"
#include "gir/cp.h"
#include "gir/fp2d.h"
#include "gir/gir_star.h"
#include "gir/phase1.h"
#include "gir/sharded_cache.h"
#include "gir/sp.h"
#include "storage/snapshot_store.h"

namespace gir {

Result<Phase2Method> ParsePhase2Method(const std::string& name) {
  if (name == "SP") return Phase2Method::kSP;
  if (name == "CP") return Phase2Method::kCP;
  if (name == "FP") return Phase2Method::kFP;
  if (name == "BF" || name == "BruteForce") return Phase2Method::kBruteForce;
  return Status::InvalidArgument("unknown Phase-2 method: " + name);
}

Status ValidateQueryWeights(VecView weights) {
  for (size_t j = 0; j < weights.size(); ++j) {
    if (!std::isfinite(weights[j])) {
      return Status::InvalidArgument("non-finite query weight at dimension " +
                                     std::to_string(j));
    }
  }
  return Status::Ok();
}

std::string Phase2MethodName(Phase2Method method) {
  switch (method) {
    case Phase2Method::kSP:
      return "SP";
    case Phase2Method::kCP:
      return "CP";
    case Phase2Method::kFP:
      return "FP";
    case Phase2Method::kBruteForce:
      return "BF";
  }
  return "?";
}

GirEngine::GirEngine(const Dataset* dataset, Dataset* mutable_dataset,
                     DiskManager* disk,
                     std::unique_ptr<ScoringFunction> scoring,
                     const GirEngineOptions& options)
    : dataset_(dataset),
      mutable_dataset_(mutable_dataset),
      disk_(disk),
      scoring_(std::move(scoring)),
      options_(options),
      tree_(RTree::BulkLoad(dataset, disk)) {
  // Epoch 0. A read-only engine's image reads the caller's dataset
  // directly (nothing can mutate it through this engine); an updatable
  // engine's must not alias the mutable master — an ApplyUpdates append
  // can reallocate the master's storage under an in-flight epoch-0
  // reader — so it owns a copy, like every later epoch.
  auto snap = std::make_shared<Snapshot>();
  snap->dataset =
      mutable_dataset_ == nullptr
          ? std::shared_ptr<const Dataset>(dataset_, [](const Dataset*) {})
          : std::make_shared<const Dataset>(*dataset_);
  snap->flat = FlatRTree::Freeze(*tree_, snap->dataset.get());
  snap->version = 0;
  snapshot_ = std::move(snap);
}

GirEngine::GirEngine(std::unique_ptr<Dataset> owned, RTree tree,
                     uint64_t version, DiskManager* disk,
                     std::unique_ptr<ScoringFunction> scoring,
                     const GirEngineOptions& options)
    : owned_dataset_(std::move(owned)),
      dataset_(owned_dataset_.get()),
      mutable_dataset_(owned_dataset_.get()),
      disk_(disk),
      scoring_(std::move(scoring)),
      options_(options),
      tree_(std::move(tree)) {
  // Publish the recovered epoch exactly like a post-update refreeze:
  // an immutable dataset image plus a flat arena frozen from the
  // restored master tree, stamped with the recovered version.
  auto snap = std::make_shared<Snapshot>();
  snap->dataset = std::make_shared<const Dataset>(*dataset_);
  snap->flat = FlatRTree::Freeze(*tree_, snap->dataset.get());
  snap->version = version;
  snapshot_ = std::move(snap);
  version_.store(version, std::memory_order_release);
}

GirEngine::GirEngine(std::shared_ptr<const Dataset> dataset, FlatRTree flat,
                     uint64_t version, DiskManager* disk,
                     std::unique_ptr<ScoringFunction> scoring,
                     const GirEngineOptions& options)
    : dataset_(nullptr),
      disk_(disk),
      scoring_(std::move(scoring)),
      options_(options) {
  auto snap = std::make_shared<Snapshot>();
  snap->dataset = std::move(dataset);
  snap->flat = std::move(flat);
  snap->version = version;
  snapshot_ = std::move(snap);
  version_.store(version, std::memory_order_release);
}

namespace {

// One arena epoch, ready to publish: the mapped file, a heap dataset
// image rebuilt from its rows, and a FlatRTree whose planes point
// straight into the mapping. Shared by Open(kArena) and AdvanceToArena.
struct ArenaEpoch {
  std::shared_ptr<const Dataset> dataset;
  FlatRTree flat;
  uint64_t version = 0;
};

Result<ArenaEpoch> LoadArenaEpoch(std::shared_ptr<const ArenaFile> arena,
                                  DiskManager* disk) {
  Result<std::unique_ptr<Dataset>> dataset = arena->BuildDataset();
  if (!dataset.ok()) return dataset.status();
  std::shared_ptr<const Dataset> ds(std::move(*dataset));
  const uint64_t version = arena->version();
  Result<FlatRTree> flat =
      FlatRTree::FromArena(std::move(arena), ds.get(), disk);
  if (!flat.ok()) return flat.status();
  ArenaEpoch epoch;
  epoch.dataset = std::move(ds);
  epoch.flat = std::move(*flat);
  epoch.version = version;
  return epoch;
}

Result<ArenaEpoch> LoadArenaEpoch(const std::string& path, DiskManager* disk) {
  Result<std::shared_ptr<const ArenaFile>> arena = ArenaFile::Open(path);
  if (!arena.ok()) return arena.status();
  return LoadArenaEpoch(std::move(*arena), disk);
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

Result<std::unique_ptr<GirEngine>> GirEngine::Open(EngineConfig config) {
  if (config.disk == nullptr) {
    return Status::InvalidArgument("EngineConfig needs a DiskManager");
  }
  if (config.scoring == nullptr) {
    return Status::InvalidArgument("EngineConfig needs a scoring function");
  }
  if ((config.source == EngineConfig::Source::kCsv ||
       config.source == EngineConfig::Source::kArena) &&
      config.path.empty()) {
    // Fail fast and by name: an empty path would otherwise surface as a
    // confusing NotFound against the working directory.
    return Status::InvalidArgument("EngineConfig file source needs a path");
  }
  if (!config.wal_dir.empty() &&
      config.source == EngineConfig::Source::kDataset) {
    return Status::InvalidArgument(
        "a WAL needs an updatable engine; kDataset (const) cannot log "
        "updates");
  }
  switch (config.source) {
    case EngineConfig::Source::kDataset: {
      if (config.dataset == nullptr) {
        return Status::InvalidArgument("kDataset source needs a dataset");
      }
      return std::unique_ptr<GirEngine>(
          new GirEngine(config.dataset, nullptr, config.disk,
                        std::move(config.scoring), config.options));
    }
    case EngineConfig::Source::kMutableDataset: {
      if (config.mutable_dataset == nullptr) {
        return Status::InvalidArgument(
            "kMutableDataset source needs a mutable dataset");
      }
      std::unique_ptr<GirEngine> engine(new GirEngine(
          config.mutable_dataset, config.mutable_dataset, config.disk,
          std::move(config.scoring), config.options));
      if (!config.wal_dir.empty()) {
        // Caller-supplied dataset: nothing to replay against (the log's
        // history need not match it); start logging at the current
        // epoch.
        Status attached = engine->AttachWal(config, /*replay=*/false);
        if (!attached.ok()) return attached;
      }
      return engine;
    }
    case EngineConfig::Source::kCsv: {
      Result<Dataset> loaded = LoadCsvDataset(config.path);
      if (!loaded.ok()) return loaded.status();
      auto owned = std::make_unique<Dataset>(std::move(*loaded));
      std::unique_ptr<GirEngine> engine(
          new GirEngine(owned.get(), owned.get(), config.disk,
                        std::move(config.scoring), config.options));
      engine->owned_dataset_ = std::move(owned);
      if (!config.wal_dir.empty()) {
        Status attached = engine->AttachWal(config, /*replay=*/false);
        if (!attached.ok()) return attached;
      }
      return engine;
    }
    case EngineConfig::Source::kArena: {
      Result<std::shared_ptr<const ArenaFile>> arena =
          Status::Internal("unreachable");
      if (IsDirectory(config.path)) {
        // Directory source: the pick hands back the winner's validated
        // mapping, so the engine builds over it without a second
        // open-and-checksum pass.
        SnapshotStore store(config.path);
        Result<SnapshotStore::ArenaPick> pick = store.RecoverLatestArena();
        if (!pick.ok()) return pick.status();
        arena = std::move(pick->file);
      } else {
        arena = ArenaFile::Open(config.path);
      }
      if (!arena.ok()) return arena.status();

      if (config.wal_dir.empty()) {
        // No log to write: serve the mapping zero-copy, read-only.
        Result<ArenaEpoch> epoch =
            LoadArenaEpoch(std::move(*arena), config.disk);
        if (!epoch.ok()) return epoch.status();
        return std::unique_ptr<GirEngine>(new GirEngine(
            std::move(epoch->dataset), std::move(epoch->flat), epoch->version,
            config.disk, std::move(config.scoring), config.options));
      }
      // Writer restart (two-phase recovery): thaw the master tree from
      // the arena's node sections, page ids 1:1, then replay every
      // committed WAL batch past the arena epoch. Replay repeats the
      // pre-crash mutations on the pre-crash page image, so the result
      // is page-identical to the engine that acknowledged them.
      Result<std::unique_ptr<Dataset>> ds = (*arena)->BuildDataset();
      if (!ds.ok()) return ds.status();
      const uint64_t version = (*arena)->version();
      Result<FlatRTree> flat =
          FlatRTree::FromArena(std::move(*arena), ds->get(), config.disk);
      if (!flat.ok()) return flat.status();
      Result<RTree> tree = flat->Thaw(ds->get(), config.disk);
      if (!tree.ok()) return tree.status();
      std::unique_ptr<GirEngine> engine(new GirEngine(
          std::move(*ds), std::move(*tree), version, config.disk,
          std::move(config.scoring), config.options));
      Status attached = engine->AttachWal(config, /*replay=*/true);
      if (!attached.ok()) return attached;
      return engine;
    }
  }
  return Status::InvalidArgument("unknown EngineConfig source");
}

Status GirEngine::AttachWal(const EngineConfig& config, bool replay) {
  wal_store_ =
      std::make_unique<WalStore>(config.wal_dir, config.wal_injector);
  const uint64_t dim = dataset().dim();
  wal_recovery_.recovered_epoch = dataset_version();
  wal_recovery_.replayed_to = dataset_version();
  if (replay) {
    Result<WalStore::ReplayLog> log =
        wal_store_->ReadCommitted(dataset_version());
    if (!log.ok()) return log.status();
    if (log->wal_dim != 0 && log->wal_dim != dim) {
      return Status::DataLoss("wal dimension " + std::to_string(log->wal_dim) +
                              " does not match dataset dimension " +
                              std::to_string(dim));
    }
    wal_recovery_.overlap_skipped = log->overlap_skipped;
    wal_recovery_.torn_truncated = log->torn_truncated;
    wal_recovery_.gap_dropped = log->gap_dropped;
    // The scan only *logically* cut the damage; make the disk match
    // before the writer opens. Leaving a torn tail in an older segment
    // would end the NEXT recovery's scan early, hiding batches this
    // engine is about to acknowledge into a newer segment — and the
    // writer's O_TRUNC open would then destroy them. Stale higher-base
    // segments from an abandoned timeline are removed the same way so
    // a later replay can never interleave their records.
    Result<WalStore::SanitizeStats> cleaned = wal_store_->Sanitize(*log);
    if (!cleaned.ok()) return cleaned.status();
    wal_recovery_.segments_truncated = cleaned->truncated_segments;
    wal_recovery_.segments_removed = cleaned->removed_segments;
    for (const WalStore::ReplayRecord& rec : log->records) {
      // Replay repeats the exact pre-crash mutation sequence — same
      // batches, same order, same epoch stamps — so the resulting
      // master (and its refrozen snapshots) is bit-identical to the
      // engine that originally acknowledged them. No lock: the engine
      // is not published yet.
      Result<UpdateStats> applied =
          ApplyUpdatesLocked(rec.batch, nullptr, /*log_to_wal=*/false);
      if (!applied.ok()) {
        return Status::DataLoss(
            "wal replay failed at epoch " + std::to_string(rec.epoch) + ": " +
            applied.status().message());
      }
      ++wal_recovery_.replayed_batches;
    }
    wal_recovery_.replayed_to = dataset_version();
  }
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
      wal_store_.get(), dataset_version(), dim, config.wal);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(*writer);
  return Status::Ok();
}

Result<GirEngine::CheckpointStats> GirEngine::Checkpoint(SnapshotStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("Checkpoint needs a SnapshotStore");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  CheckpointStats out;
  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  out.version = snap->version;
  Result<SnapshotStore::WriteStats> wrote =
      store->WriteArena(snap->flat, snap->version);
  if (!wrote.ok()) return wrote.status();
  out.arena_path = wrote->path;
  out.arena_bytes = wrote->bytes;
  if (wal_ != nullptr) {
    // Only a checkpoint that *validates* may shrink the log: an
    // injected (or real) torn publish returns Ok above exactly like a
    // crash would, and truncating against it would widen the data-loss
    // window the WAL exists to close.
    if (ArenaFile::Open(wrote->path).ok()) {
      Status rotated = wal_->Rotate(snap->version);
      if (!rotated.ok()) return rotated;
      Result<WalStore::TruncateStats> cut = wal_store_->Truncate(snap->version);
      if (!cut.ok()) return cut.status();
      out.wal_segments_removed = cut->removed_segments;
      out.wal_truncated = true;
    }
  }
  return out;
}

Result<uint64_t> GirEngine::AdvanceToArena(const std::string& path) {
  if (dataset_ != nullptr || mutable_dataset_ != nullptr) {
    return Status::FailedPrecondition(
        "AdvanceToArena needs a read-only arena engine (Open with a kArena "
        "source and no WAL)");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  Result<ArenaEpoch> epoch = LoadArenaEpoch(path, disk_);
  if (!epoch.ok()) return epoch.status();
  if (epoch->dataset->dim() != LoadSnapshot()->dataset->dim()) {
    return Status::InvalidArgument(
        "arena file has a different dataset dimensionality");
  }
  auto snap = std::make_shared<Snapshot>();
  snap->dataset = std::move(epoch->dataset);
  snap->flat = std::move(epoch->flat);
  snap->version = epoch->version;
  // Publish; in-flight readers drain on the old mapping, whose
  // shared_ptr chain (Snapshot -> FlatRTree -> ArenaFile) munmaps the
  // retired file when the last pin drops.
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const Snapshot>(std::move(snap)),
                             std::memory_order_release);
  version_.store(epoch->version, std::memory_order_release);
  return epoch->version;
}

std::unique_ptr<GirEngine> OpenEngineOrDie(EngineConfig config) {
  Result<std::unique_ptr<GirEngine>> engine = GirEngine::Open(std::move(config));
  if (!engine.ok()) {
    std::fprintf(stderr, "GirEngine::Open failed: %s\n",
                 engine.status().message().c_str());
    std::abort();
  }
  return std::move(*engine);
}

Result<GirComputation> GirEngine::Compute(VecView weights, size_t k,
                                          Phase2Method method,
                                          bool order_sensitive) const {
  // Pin the current epoch: everything below reads this snapshot's
  // dataset image and flat arena, so a concurrent ApplyUpdates can
  // neither block nor tear this query.
  const std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  const FlatRTree& flat = snap->flat;
  if (k == 0 || k > flat.size()) {
    return Status::InvalidArgument("k out of range");
  }
  Status valid = ValidateQueryWeights(weights);
  if (!valid.ok()) return valid;

  // Top-k retrieval (BRS), ahead of GIR computation proper. All
  // traversals run on the frozen image.
  Stopwatch sw;
  Result<TopKResult> topk = RunBrs(flat, *scoring_, weights, k);
  if (!topk.ok()) return topk.status();
  return FinishGir(flat, snap->version, weights, k, method, order_sensitive,
                   std::move(*topk), sw.ElapsedMillis());
}

Result<GirComputation> GirEngine::ComputeGirWithTopK(
    const PinnedIndex& pin, VecView weights, size_t k, Phase2Method method,
    TopKResult topk, double topk_cpu_ms) const {
  const FlatRTree& flat = *pin.flat;
  if (k == 0 || k > flat.size()) {
    return Status::InvalidArgument("k out of range");
  }
  if (weights.size() != flat.dataset().dim()) {
    return Status::InvalidArgument("weight dimensionality mismatch");
  }
  Status valid = ValidateQueryWeights(weights);
  if (!valid.ok()) return valid;
  return FinishGir(flat, pin.version, weights, k, method,
                   /*order_sensitive=*/true, std::move(topk), topk_cpu_ms);
}

Result<GirComputation> GirEngine::FinishGir(const FlatRTree& flat,
                                            uint64_t version, VecView weights,
                                            size_t k, Phase2Method method,
                                            bool order_sensitive,
                                            TopKResult topk,
                                            double topk_cpu_ms) const {
  const Dataset& data = flat.dataset();
  GirStats stats;
  stats.topk_cpu_ms = topk_cpu_ms;
  stats.topk_reads = topk.io.reads;

  GirRegion region(data.dim(), Vec(weights.begin(), weights.end()),
                   topk.result);

  // Phase 1 (order-sensitive only; GIR* has no ordering constraints).
  Stopwatch sw;
  if (order_sensitive) {
    sw.Restart();
    AddPhase1Constraints(data, *scoring_, topk.result, &region);
    stats.phase1_cpu_ms = sw.ElapsedMillis();
  }

  // Phase 2.
  sw.Restart();
  Phase2Output p2;
  if (order_sensitive) {
    switch (method) {
      case Phase2Method::kSP:
        p2 = RunSpPhase2(flat, *scoring_, weights, topk, &region);
        break;
      case Phase2Method::kCP:
        p2 = RunCpPhase2(flat, *scoring_, weights, topk, &region);
        break;
      case Phase2Method::kFP: {
        Result<Phase2Output> r =
            data.dim() == 2
                ? RunFp2dPhase2(flat, *scoring_, weights, topk, &region)
                : RunFpNdPhase2(flat, *scoring_, weights, topk, &region,
                                options_.fp);
        if (!r.ok()) return r.status();
        p2 = *r;
        break;
      }
      case Phase2Method::kBruteForce: {
        // Reference path: scan the live records (charging the
        // equivalent page reads) and add every non-result constraint.
        IoStats before = DiskManager::ThreadStats();
        const RecordId pk = topk.result.back();
        Vec gk = scoring_->Transform(data.Get(pk));
        std::vector<bool> in_result(data.size(), false);
        for (RecordId id : topk.result) in_result[id] = true;
        ConstraintProvenance prov;
        prov.kind = ConstraintProvenance::Kind::kOvertake;
        prov.position = static_cast<int>(k) - 1;
        for (size_t i = 0; i < data.size(); ++i) {
          if (in_result[i] || !data.IsLive(static_cast<RecordId>(i))) {
            continue;
          }
          prov.challenger = static_cast<RecordId>(i);
          region.AddConstraint(
              Sub(gk, scoring_->Transform(data.Get(prov.challenger))), prov);
        }
        // Simulate the full-scan I/O the paper ascribes to this
        // approach: every reachable leaf page is read (freed pages of
        // the update path never count). The reads go through the
        // checked FetchPage path, so fault plans cover them and the
        // arena-backed mapping pages in inside the accounted read.
        std::vector<PageId> stack = {flat.root()};
        while (!stack.empty()) {
          const PageId page = stack.back();
          const FlatRTree::NodeView node = flat.PeekNode(page);
          stack.pop_back();
          if (node.is_leaf()) {
            Status read = flat.FetchPage(page);
            if (!read.ok()) return read;
            continue;
          }
          for (size_t e = 0; e < node.count(); ++e) {
            stack.push_back(static_cast<PageId>(node.child(e)));
          }
        }
        p2.candidates = data.live_size() - k;
        p2.io = DiskManager::ThreadStats() - before;
        break;
      }
    }
  } else {
    Result<Phase2Output> r =
        RunGirStarPhase2(flat, *scoring_, weights, topk,
                         Phase2MethodName(method), &region, options_.fp);
    if (!r.ok()) return r.status();
    p2 = *r;
  }
  stats.phase2_cpu_ms = sw.ElapsedMillis();
  stats.phase2_reads = p2.io.reads;
  stats.candidates = p2.candidates;
  stats.star_facets = p2.star_facets;
  stats.constraints = region.constraints().size();

  // Half-space intersection (the paper runs Qhull here and charges it
  // to the method's CPU time).
  if (options_.materialize_polytope) {
    sw.Restart();
    region.polytope();
    stats.intersect_cpu_ms = sw.ElapsedMillis();
  }

  GirComputation out{std::move(topk), std::move(region), stats, version};
  return out;
}

Result<UpdateStats> GirEngine::ApplyUpdates(const UpdateBatch& batch,
                                            ShardedGirCache* cache) {
  if (mutable_dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "engine is read-only; updates need the Dataset* constructor");
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  return ApplyUpdatesLocked(batch, cache, /*log_to_wal=*/true);
}

Result<UpdateStats> GirEngine::ApplyUpdatesLocked(const UpdateBatch& batch,
                                                  ShardedGirCache* cache,
                                                  bool log_to_wal) {
  // Validate the whole batch — including the index invariant that every
  // live delete id is actually present in the master tree — before
  // logging or mutating anything: a failed batch leaves dataset, tree
  // and WAL untouched.
  const size_t dim = dataset_->dim();
  for (const Vec& p : batch.inserts) {
    if (p.size() != dim) {
      return Status::InvalidArgument("insert dimensionality mismatch");
    }
    for (double x : p) {
      if (!(x >= 0.0 && x <= 1.0)) {
        return Status::InvalidArgument(
            "insert outside the normalized [0,1]^d domain");
      }
    }
  }
  std::unordered_set<RecordId> delete_set;
  for (RecordId id : batch.deletes) {
    if (id < 0 || static_cast<size_t>(id) >= dataset_->size()) {
      return Status::InvalidArgument("delete id out of range");
    }
    if (!dataset_->IsLive(id)) {
      return Status::InvalidArgument("delete of an already-dead record");
    }
    if (!delete_set.insert(id).second) {
      return Status::InvalidArgument("duplicate delete id in batch");
    }
    if (!tree_->Contains(id)) {
      return Status::Internal("live record missing from the R*-tree");
    }
  }
  UpdateStats stats;
  Stopwatch sw;
  const uint64_t new_version = version_.load(std::memory_order_relaxed) + 1;

  // 1. Make the batch durable before touching any state. This is the
  // ack point: once the group commit covers the record, a crash at any
  // later step replays the batch on recovery; if the commit fails, the
  // caller sees the error with the engine exactly as it was.
  if (log_to_wal && wal_ != nullptr) {
    Status logged = wal_->AppendDurable(batch, new_version);
    if (!logged.ok()) return logged;
    stats.wal_logged = true;
    stats.wal_ms = sw.ElapsedMillis();
    sw.Restart();
  }

  // 2. Mutate the master index + dataset (deletes before inserts).
  // The Contains probe above makes the Delete below infallible.
  for (RecordId id : batch.deletes) {
    if (!tree_->Delete(id)) {
      return Status::Internal("live record missing from the R*-tree");
    }
    mutable_dataset_->MarkDeleted(id);
  }
  std::vector<RecordId> new_ids;
  new_ids.reserve(batch.inserts.size());
  for (const Vec& p : batch.inserts) {
    const RecordId id = mutable_dataset_->AppendRecord(p);
    tree_->Insert(id);
    new_ids.push_back(id);
  }
  stats.apply_ms = sw.ElapsedMillis();

  // 3. Refreeze into a fresh epoch: an immutable dataset image plus a
  // flat arena bound to it. Readers of older epochs are untouched.
  sw.Restart();
  auto snap = std::make_shared<Snapshot>();
  snap->dataset = std::make_shared<const Dataset>(*mutable_dataset_);
  snap->flat = FlatRTree::Freeze(*tree_, snap->dataset.get());
  snap->version = new_version;
  stats.refreeze_ms = sw.ElapsedMillis();

  // 4. Incremental cache invalidation, before the epoch flips: doomed
  // entries disappear while the old epoch is still current (probes just
  // miss and recompute), and survivors become servable exactly when the
  // version bumps below.
  sw.Restart();
  if (cache != nullptr) {
    std::vector<Vec> inserted_g;
    inserted_g.reserve(new_ids.size());
    for (RecordId id : new_ids) {
      inserted_g.push_back(scoring_->Transform(snap->dataset->Get(id)));
    }
    const UpdateInvalidation inv = cache->InvalidateForUpdates(
        batch.deletes, inserted_g, *snap->dataset, *scoring_, new_version);
    stats.cache_entries_before = inv.entries_before;
    stats.cache_lp_tests = inv.lp_tests;
    stats.cache_stale_evicted = inv.stale_evicted;
    stats.cache_delete_evicted = inv.delete_evicted;
    stats.cache_insert_evicted = inv.insert_evicted;
    stats.cache_survived = inv.survived;
  }
  stats.invalidate_ms = sw.ElapsedMillis();

  // 5. Publish the epoch.
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const Snapshot>(std::move(snap)),
                             std::memory_order_release);
  version_.store(new_version, std::memory_order_release);

  stats.applied_inserts = batch.inserts.size();
  stats.applied_deletes = batch.deletes.size();
  stats.version = new_version;
  return stats;
}

Result<GirComputation> GirEngine::ComputeGir(VecView weights, size_t k,
                                             Phase2Method method) const {
  return Compute(weights, k, method, /*order_sensitive=*/true);
}

Result<GirComputation> GirEngine::ComputeGirStar(VecView weights, size_t k,
                                                 Phase2Method method) const {
  if (method == Phase2Method::kBruteForce) {
    return Status::InvalidArgument("GIR* supports SP, CP and FP");
  }
  return Compute(weights, k, method, /*order_sensitive=*/false);
}

}  // namespace gir
