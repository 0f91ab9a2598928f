// Mmap'd-arena storage benchmark (JSON + exit-code gated):
//
// 1. Cold restart: push an engine through several update epochs,
//    publish the final epoch as an arena file, then "crash" and time
//    the two restarts from that one file: the writer restart (thaw the
//    master tree + refreeze: Open(FromArena).WithWal) and the read-only
//    restart (validate + mmap + serve: Open(FromArena)). Their ratio is
//    reported, not gated. Probe queries prove both engines answer
//    bit-identically (ids, scores, charged reads) to the pre-crash one,
//    and the writer's master tree has the pre-crash page image.
//
// 2. Frontier prefetch: evict the mapping's resident set, then run one
//    shared-traversal batch with the madvise readahead on and one with
//    it off, reporting the issue/hit/miss counters and the round wall
//    time. The gate is correctness-shaped, not wall-clock-shaped: the
//    counters must fire exactly when enabled, and prefetch must not be
//    catastrophically slower — on tmpfs-backed CI runners the page-in
//    cost readahead hides is near zero, so a latency win is reported
//    but never required.
//
// 3. Larger-than-RAM: repeatedly cap the resident set (Evict) and
//    serve a batch through the cold mapping, reporting how many bytes
//    each round faults back in — the mapped engine keeps serving when
//    the file does not fit in memory, it just pays page-ins.
//
// Emits BENCH_PR8.json (schema bench/BENCH_PR8.schema.json); exits
// non-zero unless the probes are bitwise-identical and the prefetch
// counters behave.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gir/batch_engine.h"
#include "storage/arena_file.h"
#include "storage/snapshot_store.h"

using namespace gir;
using namespace gir::bench;

namespace {

struct BenchConfig {
  Params params;
  int64_t dim = 3;
  int64_t epochs = 3;         // update batches before the "crash"
  int64_t probes = 24;        // bitwise-equality probe queries
  int64_t batch_queries = 48; // prefetch / resident-set batch size
  int64_t resident_rounds = 3;
};

UpdateBatch MakeUpdateBatch(const Dataset& data, Rng& rng, size_t count) {
  UpdateBatch batch;
  const size_t dim = data.dim();
  for (size_t i = 0; i < count; ++i) {
    Vec v(dim);
    for (size_t j = 0; j < dim; ++j) v[j] = rng.Uniform();
    batch.inserts.push_back(std::move(v));
  }
  while (batch.deletes.size() < count) {
    const RecordId id = static_cast<RecordId>(rng.UniformInt(data.size()));
    if (!data.IsLive(id)) continue;
    bool dup = false;
    for (RecordId d : batch.deletes) dup |= d == id;
    if (!dup) batch.deletes.push_back(id);
  }
  return batch;
}

struct PrefetchRun {
  double wall_ms = 0.0;
  uint64_t issued = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

struct ResidentRound {
  uint64_t resident_before = 0;
  uint64_t resident_after = 0;
  double wall_ms = 0.0;
};

PrefetchRun RunSharedBatch(BatchEngine* batch, const std::vector<Vec>& ws,
                           size_t k, bool prefetch) {
  ExecPolicy policy;
  policy.shared_traversal = true;
  policy.group_width = 16;
  policy.prefetch = prefetch;
  Stopwatch sw;
  auto result = batch->ComputeBatch(ws, k, Phase2Method::kFP, policy);
  PrefetchRun run;
  run.wall_ms = sw.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "batch: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  run.issued = result->stats.prefetch_issued;
  run.hits = result->stats.prefetch_hits;
  run.misses = result->stats.prefetch_misses;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  cfg.params.n = 60000;
  FlagSet flags;
  cfg.params.Register(&flags);
  std::string out_path = "BENCH_PR8.json";
  std::string arena_dir =
      (std::filesystem::temp_directory_path() / "gir_bench_arena").string();
  flags.AddInt("d", &cfg.dim, "dimensionality");
  flags.AddInt("epochs", &cfg.epochs, "update epochs before the crash");
  flags.AddInt("probes", &cfg.probes, "bitwise probe queries post-restart");
  flags.AddInt("batch_queries", &cfg.batch_queries,
               "queries per prefetch / resident-set batch");
  flags.AddInt("resident_rounds", &cfg.resident_rounds,
               "evict-and-serve rounds of the capped-resident-set phase");
  flags.AddString("arena_dir", &arena_dir,
                  "scratch directory for the arena and WAL files");
  flags.AddString("out", &out_path, "output JSON path");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  cfg.params.ApplyFullDefaults();

  std::printf("Mmap arena bench (n=%lld, d=%lld, k=%lld, epochs=%lld)\n",
              static_cast<long long>(cfg.params.n),
              static_cast<long long>(cfg.dim),
              static_cast<long long>(cfg.params.k),
              static_cast<long long>(cfg.epochs));

  const size_t dim = static_cast<size_t>(cfg.dim);
  GirEngineOptions eopts;
  eopts.materialize_polytope = false;

  // ----- build + epochs + publish the arena -----
  Dataset data = MakeNamedDataset("IND", cfg.params.n, cfg.dim,
                                  cfg.params.seed);
  DiskManager disk;
  auto engine = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &disk, MakeScoring("Linear", dim), eopts));
  Rng rng(static_cast<uint64_t>(cfg.params.seed) * 47 + 3);
  for (int64_t e = 0; e < cfg.epochs; ++e) {
    UpdateBatch batch = MakeUpdateBatch(engine->dataset(), rng, 64);
    auto up = engine->ApplyUpdates(batch);
    if (!up.ok()) {
      std::fprintf(stderr, "update: %s\n", up.status().ToString().c_str());
      return 1;
    }
  }
  const std::string wal_dir = arena_dir + "_wal";
  std::filesystem::remove_all(arena_dir);
  std::filesystem::remove_all(wal_dir);
  SnapshotStore store(arena_dir);
  const uint64_t version = engine->dataset_version();
  auto arena_write = store.WriteArena(engine->flat_tree(), version);
  if (!arena_write.ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }

  // ----- cold restart: writer (thaw) vs read-only (mmap) -----
  DiskManager rebuild_disk;
  Stopwatch rebuild_sw;
  auto rebuilt_open = GirEngine::Open(
      EngineConfig::FromArena(arena_dir, &rebuild_disk,
                              MakeScoring("Linear", dim), eopts)
          .WithWal(wal_dir));
  if (!rebuilt_open.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 rebuilt_open.status().ToString().c_str());
    return 1;
  }
  auto rebuilt = std::move(*rebuilt_open);
  const double rebuild_ms = rebuild_sw.ElapsedMillis();

  // Best of three opens: the mmap path is microseconds-scale, one
  // scheduler hiccup would otherwise dominate the ratio.
  double mmap_open_ms = 0.0;
  std::unique_ptr<GirEngine> mapped;
  DiskManager mmap_disk;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Stopwatch sw;
    auto opened = GirEngine::Open(EngineConfig::FromArena(
        arena_dir, &mmap_disk, MakeScoring("Linear", dim), eopts));
    const double ms = sw.ElapsedMillis();
    if (!opened.ok()) {
      std::fprintf(stderr, "open arena: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    if (mapped == nullptr || ms < mmap_open_ms) mmap_open_ms = ms;
    mapped = std::move(*opened);
  }
  const double speedup = rebuild_ms / std::max(mmap_open_ms, 1e-6);

  // ----- bitwise probes: pre-crash vs mapped and vs thawed -----
  bool bitwise = mapped->dataset_version() == version &&
                 rebuilt->dataset_version() == version &&
                 BuildArenaImage(FlatRTree::Freeze(rebuilt->tree()), version) ==
                     BuildArenaImage(FlatRTree::Freeze(engine->tree()),
                                     version);
  Rng probe_rng(99);
  for (int64_t q = 0; q < cfg.probes && bitwise; ++q) {
    Vec w = RandomQuery(probe_rng, dim);
    auto a = engine->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
    for (GirEngine* restarted : {mapped.get(), rebuilt.get()}) {
      auto b = restarted->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
      if (!a.ok() || !b.ok() || a->topk.result != b->topk.result ||
          a->topk.scores != b->topk.scores ||
          a->topk.io.reads != b->topk.io.reads ||
          a->stats.phase2_reads != b->stats.phase2_reads) {
        bitwise = false;
      }
    }
  }

  PrintTitle("cold restart");
  PrintHeader("path", {"ms"});
  PrintRow("rebuild", {rebuild_ms});
  PrintRow("mmap", {mmap_open_ms});
  std::printf("arena %.1f KiB; rebuild/mmap %.1fx, probes bitwise %s\n",
              static_cast<double>(arena_write->bytes) / 1024.0, speedup,
              bitwise ? "yes" : "NO");

  // ----- frontier prefetch on a cold mapping -----
  const ArenaFile* arena = mapped->flat_tree().arena().get();
  std::vector<Vec> batch_ws;
  Rng batch_rng(static_cast<uint64_t>(cfg.params.seed) * 13 + 1);
  for (int64_t q = 0; q < cfg.batch_queries; ++q) {
    batch_ws.push_back(RandomQuery(batch_rng, dim));
  }
  BatchOptions bopts;
  bopts.threads = 1;
  bopts.cache_capacity = 0;  // every query exercises the storage path
  BatchEngine mmap_batch(mapped.get(), bopts);

  arena->Evict();
  PrefetchRun off = RunSharedBatch(&mmap_batch, batch_ws, cfg.params.k,
                                   /*prefetch=*/false);
  arena->Evict();
  PrefetchRun on = RunSharedBatch(&mmap_batch, batch_ws, cfg.params.k,
                                  /*prefetch=*/true);
  const double hit_rate =
      on.hits + on.misses > 0
          ? static_cast<double>(on.hits) /
                static_cast<double>(on.hits + on.misses)
          : 0.0;
  // Counter contract plus a loose latency backstop (tmpfs runners see
  // no page-in cost, so "not catastrophically slower" is the portable
  // claim; absolute wall times are reported for real-disk hosts).
  const bool prefetch_ok = on.issued > 0 && on.hits + on.misses > 0 &&
                           off.issued == 0 &&
                           on.wall_ms <= off.wall_ms * 3.0 + 5.0;

  PrintTitle("frontier prefetch (cold mapping, shared traversal)");
  PrintHeader("mode", {"wall_ms", "issued", "hits", "misses"});
  PrintRow("off", {off.wall_ms, static_cast<double>(off.issued),
                   static_cast<double>(off.hits),
                   static_cast<double>(off.misses)});
  PrintRow("on", {on.wall_ms, static_cast<double>(on.issued),
                  static_cast<double>(on.hits),
                  static_cast<double>(on.misses)});
  std::printf("prefetch hit rate %.2f, counters %s\n", hit_rate,
              prefetch_ok ? "ok" : "BROKEN");

  // ----- larger-than-RAM: capped resident set, keep serving -----
  std::vector<ResidentRound> rounds;
  for (int64_t r = 0; r < cfg.resident_rounds; ++r) {
    arena->Evict();
    ResidentRound round;
    round.resident_before = arena->ResidentBytes();
    Stopwatch sw;
    auto result = mmap_batch.ComputeBatch(batch_ws, cfg.params.k,
                                          Phase2Method::kFP);
    round.wall_ms = sw.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "resident round: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    round.resident_after = arena->ResidentBytes();
    rounds.push_back(round);
  }
  PrintTitle("capped resident set (evict before every round)");
  PrintHeader("round", {"resident_kb_before", "resident_kb_after",
                        "wall_ms"});
  for (size_t r = 0; r < rounds.size(); ++r) {
    PrintRow(std::to_string(r),
             {static_cast<double>(rounds[r].resident_before) / 1024.0,
              static_cast<double>(rounds[r].resident_after) / 1024.0,
              rounds[r].wall_ms});
  }

  // ----- gate + JSON -----
  const bool pass = bitwise && prefetch_ok;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_mmap_arena\",\n");
  std::fprintf(f,
               "  \"params\": {\"n\": %lld, \"d\": %lld, \"k\": %lld, "
               "\"epochs\": %lld, \"probes\": %lld, "
               "\"batch_queries\": %lld, \"seed\": %lld, "
               "\"method\": \"FP\"},\n",
               static_cast<long long>(cfg.params.n),
               static_cast<long long>(cfg.dim),
               static_cast<long long>(cfg.params.k),
               static_cast<long long>(cfg.epochs),
               static_cast<long long>(cfg.probes),
               static_cast<long long>(cfg.batch_queries),
               static_cast<long long>(cfg.params.seed));
  std::fprintf(f,
               "  \"cold_restart\": {\"arena_bytes\": %llu, "
               "\"rebuild_ms\": %.4f, "
               "\"mmap_open_ms\": %.4f, \"speedup\": %.2f, "
               "\"version\": %llu, \"bitwise_identical\": %s},\n",
               static_cast<unsigned long long>(arena_write->bytes),
               rebuild_ms, mmap_open_ms, speedup,
               static_cast<unsigned long long>(version),
               bitwise ? "true" : "false");
  std::fprintf(f,
               "  \"prefetch\": {\"queries\": %lld, "
               "\"off\": {\"wall_ms\": %.4f, \"issued\": %llu, "
               "\"hits\": %llu, \"misses\": %llu}, "
               "\"on\": {\"wall_ms\": %.4f, \"issued\": %llu, "
               "\"hits\": %llu, \"misses\": %llu}, "
               "\"hit_rate\": %.4f},\n",
               static_cast<long long>(cfg.batch_queries), off.wall_ms,
               static_cast<unsigned long long>(off.issued),
               static_cast<unsigned long long>(off.hits),
               static_cast<unsigned long long>(off.misses), on.wall_ms,
               static_cast<unsigned long long>(on.issued),
               static_cast<unsigned long long>(on.hits),
               static_cast<unsigned long long>(on.misses), hit_rate);
  std::fprintf(f, "  \"resident\": [\n");
  for (size_t r = 0; r < rounds.size(); ++r) {
    std::fprintf(f,
                 "    {\"round\": %zu, \"resident_bytes_before\": %llu, "
                 "\"resident_bytes_after\": %llu, \"wall_ms\": %.4f}%s\n",
                 r,
                 static_cast<unsigned long long>(rounds[r].resident_before),
                 static_cast<unsigned long long>(rounds[r].resident_after),
                 rounds[r].wall_ms, r + 1 < rounds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gate\": {\"bitwise_identical\": %s, "
               "\"prefetch_ok\": %s, \"pass\": %s}\n",
               bitwise ? "true" : "false", prefetch_ok ? "true" : "false",
               pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::filesystem::remove_all(arena_dir);
  std::filesystem::remove_all(wal_dir);

  std::printf("\nwrote %s (rebuild %.2fms vs mmap %.3fms = %.1fx; "
              "bitwise %s; prefetch %s: %s)\n",
              out_path.c_str(), rebuild_ms, mmap_open_ms, speedup,
              bitwise ? "yes" : "NO", prefetch_ok ? "ok" : "broken",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
