// WAL durability benchmark (JSON + exit-code gated):
//
// 1. Ack latency: per-batch ApplyUpdates latency (p50/p99) without a
//    WAL vs. with one at increasing group-commit windows. The gate
//    bounds the durability tax: at the default commit interval
//    (window 0 — fsync per ack) the acked p99 must stay within
//    --max_ack_overhead x the no-WAL baseline.
//
// 2. Group commit: concurrent appenders on a raw WalWriter, fsyncs vs.
//    appends per window — the amortization a positive window buys.
//
// 3. Recovery vs. tail length: publish an arena, extend the WAL tail by
//    T batches, crash, and time the two-phase reopen (thaw the master
//    tree from the arena + committed replay); the restored engine must
//    answer probe queries bit-identically (ids, scores, simulated reads)
//    to the survivor.
//
// 4. Crash-point sweep: one injected fault — torn append, corrupt
//    append, fsync EIO — walked across every commit ordinal. For every
//    crash point recovery must reproduce exactly the acknowledged
//    prefix: every acked batch survives bit-identically, no batch
//    whose ack failed is ever replayed (zero acked-write loss).
//
// Emits BENCH_PR10.json (schema bench/BENCH_PR10.schema.json); exits
// non-zero unless the sweep shows zero loss, recovery is bitwise, and
// the ack-latency overhead clears the gate.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

using namespace gir;
using namespace gir::bench;

namespace {

struct BenchConfig {
  Params params;
  int64_t dim = 3;
  int64_t ack_batches = 120;  // latency samples per ack mode
  int64_t batch_size = 8;     // inserts (and deletes) per update batch
  int64_t probes = 12;        // bitwise probe queries after recovery
  int64_t crash_points = 4;   // commit ordinals swept per damage kind
  double max_ack_overhead = 2.0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string ScratchDir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("gir_bench_wal_" + leaf))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Deterministic per-epoch batch: same inserts/deletes whether applied
// on the measured, reference or recovered timeline.
UpdateBatch EpochBatch(uint64_t epoch, size_t dim, size_t count) {
  Rng rng(12000 + epoch);
  UpdateBatch batch;
  for (size_t i = 0; i < count; ++i) {
    Vec v(dim);
    for (double& x : v) x = rng.Uniform();
    batch.inserts.push_back(std::move(v));
  }
  // Distinct live ids: initial records only, spaced per epoch.
  for (size_t i = 0; i < count; ++i) {
    batch.deletes.push_back(
        static_cast<RecordId>((epoch - 1) * count + i));
  }
  return batch;
}

// ----- 1. ack latency ------------------------------------------------

struct AckPoint {
  std::string mode;
  double window_ms = 0.0;
  bool with_wal = false;
  size_t batches = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wal_p99_ms = 0.0;  // append + group-commit wait share
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
};

AckPoint MeasureAckLatency(const BenchConfig& cfg, const std::string& mode,
                           bool with_wal, double window_ms) {
  Dataset data =
      MakeNamedDataset("IND", cfg.params.n, cfg.dim, cfg.params.seed);
  DiskManager disk;
  const std::string wal_dir = ScratchDir("ack_" + mode);
  std::unique_ptr<GirEngine> engine;
  if (with_wal) {
    WalOptions wopts;
    wopts.group_window_ms = window_ms;
    engine = OpenEngineOrDie(
        EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", cfg.dim))
            .WithWal(wal_dir, wopts));
  } else {
    engine = OpenEngineOrDie(EngineConfig::FromDataset(
        &data, &disk, MakeScoring("Linear", cfg.dim)));
  }

  AckPoint point;
  point.mode = mode;
  point.window_ms = window_ms;
  point.with_wal = with_wal;
  std::vector<double> ack_ms;
  std::vector<double> wal_ms;
  for (int64_t e = 1; e <= cfg.ack_batches; ++e) {
    UpdateBatch batch = EpochBatch(static_cast<uint64_t>(e), cfg.dim,
                                   static_cast<size_t>(cfg.batch_size));
    Stopwatch sw;
    Result<UpdateStats> up = engine->ApplyUpdates(batch);
    if (!up.ok()) {
      std::fprintf(stderr, "ack %s: %s\n", mode.c_str(),
                   up.status().ToString().c_str());
      std::exit(1);
    }
    ack_ms.push_back(sw.ElapsedMillis());
    wal_ms.push_back(up->wal_ms);
  }
  point.batches = ack_ms.size();
  point.p50_ms = Percentile(ack_ms, 0.50);
  point.p99_ms = Percentile(ack_ms, 0.99);
  point.wal_p99_ms = Percentile(wal_ms, 0.99);
  const WalWriter::Stats stats = engine->wal_writer_stats();
  point.appends = stats.appends;
  point.fsyncs = stats.fsyncs;
  engine.reset();
  std::filesystem::remove_all(wal_dir);
  return point;
}

// ----- 2. group commit -----------------------------------------------

struct GroupPoint {
  double window_ms = 0.0;
  size_t threads = 0;
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  double amortization = 0.0;  // appends per fsync
  double wall_ms = 0.0;
};

GroupPoint MeasureGroupCommit(const BenchConfig& cfg, double window_ms) {
  const std::string dir =
      ScratchDir("group_" + std::to_string(window_ms));
  WalStore store(dir);
  WalOptions wopts;
  wopts.group_window_ms = window_ms;
  auto writer = WalWriter::Open(&store, 0, static_cast<uint64_t>(cfg.dim),
                                wopts);
  if (!writer.ok()) {
    std::fprintf(stderr, "wal open: %s\n",
                 writer.status().ToString().c_str());
    std::exit(1);
  }

  GroupPoint point;
  point.window_ms = window_ms;
  point.threads = 8;
  const size_t per_thread = 16;
  std::atomic<uint64_t> next_epoch{1};
  Stopwatch sw;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < point.threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = 0; i < per_thread; ++i) {
        const uint64_t epoch =
            next_epoch.fetch_add(1, std::memory_order_relaxed);
        UpdateBatch batch = EpochBatch(epoch, cfg.dim, 2);
        batch.deletes.clear();  // raw-writer path, ids don't matter
        const Status s = (*writer)->AppendDurable(batch, epoch);
        if (!s.ok()) {
          std::fprintf(stderr, "group append: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  point.wall_ms = sw.ElapsedMillis();
  const WalWriter::Stats stats = (*writer)->stats();
  point.appends = stats.appends;
  point.fsyncs = stats.fsyncs;
  point.amortization =
      stats.fsyncs == 0 ? 0.0
                        : static_cast<double>(stats.appends) /
                              static_cast<double>(stats.fsyncs);
  writer->reset();
  std::filesystem::remove_all(dir);
  return point;
}

// ----- 3. recovery vs tail length ------------------------------------

struct RecoveryPoint {
  size_t tail_batches = 0;
  double open_ms = 0.0;  // two-phase reopen: restore + replay
  size_t replayed = 0;
  uint64_t recovered_version = 0;
  bool bitwise = false;
};

RecoveryPoint MeasureRecovery(const BenchConfig& cfg, size_t tail) {
  const std::string snap_dir =
      ScratchDir("rec_snap_" + std::to_string(tail));
  const std::string wal_dir =
      ScratchDir("rec_wal_" + std::to_string(tail));
  Dataset data =
      MakeNamedDataset("IND", cfg.params.n, cfg.dim, cfg.params.seed);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", cfg.dim))
          .WithWal(wal_dir));
  SnapshotStore store(snap_dir);

  // Two persisted epochs, then `tail` WAL-only batches. WriteArena, not
  // Checkpoint: the log keeps every segment, so replay also walks past
  // the batches the arena already covers.
  for (uint64_t e = 1; e <= 2; ++e) {
    Result<UpdateStats> up = engine->ApplyUpdates(
        EpochBatch(e, cfg.dim, static_cast<size_t>(cfg.batch_size)));
    if (!up.ok() || !store.WriteArena(engine->flat_tree(), up->version).ok()) {
      std::fprintf(stderr, "recovery setup failed\n");
      std::exit(1);
    }
  }
  for (uint64_t e = 3; e < 3 + tail; ++e) {
    if (!engine
             ->ApplyUpdates(EpochBatch(
                 e, cfg.dim, static_cast<size_t>(cfg.batch_size)))
             .ok()) {
      std::fprintf(stderr, "tail update failed\n");
      std::exit(1);
    }
  }

  RecoveryPoint point;
  point.tail_batches = tail;
  DiskManager disk2;
  Stopwatch sw;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(snap_dir, &disk2, MakeScoring("Linear", cfg.dim))
          .WithWal(wal_dir));
  point.open_ms = sw.ElapsedMillis();
  point.replayed = restored->wal_recovery().replayed_batches;
  point.recovered_version = restored->dataset_version();

  point.bitwise =
      restored->dataset_version() == engine->dataset_version();
  Rng probe_rng(99);
  for (int64_t q = 0; q < cfg.probes && point.bitwise; ++q) {
    Vec w = RandomQuery(probe_rng, static_cast<size_t>(cfg.dim));
    auto a = engine->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
    auto b = restored->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
    point.bitwise = a.ok() && b.ok() && a->topk.result == b->topk.result &&
                    a->topk.scores == b->topk.scores &&
                    a->topk.io.reads == b->topk.io.reads;
  }
  restored.reset();
  engine.reset();
  std::filesystem::remove_all(snap_dir);
  std::filesystem::remove_all(wal_dir);
  return point;
}

// ----- 4. crash-point sweep ------------------------------------------

struct SweepResult {
  size_t cases = 0;
  size_t acked_total = 0;
  size_t survived = 0;          // cases whose acked prefix recovered bitwise
  size_t unacked_replayed = 0;  // cases where recovery overshot the acks
};

SweepResult CrashPointSweep(const BenchConfig& cfg) {
  struct Kind {
    const char* name;
    void (*arm)(FaultPlan*);
  };
  const Kind kinds[] = {
      {"torn", [](FaultPlan* p) { p->wal_torn_rate = 1.0; }},
      {"corrupt", [](FaultPlan* p) { p->wal_corrupt_rate = 1.0; }},
      {"fsync", [](FaultPlan* p) { p->wal_fsync_error_rate = 1.0; }},
  };
  const size_t epochs = static_cast<size_t>(cfg.crash_points);
  const size_t kSweepN = 2000;  // small dataset: the sweep is many runs

  SweepResult out;
  for (const Kind& kind : kinds) {
    for (size_t crash_op = 0; crash_op <= epochs; ++crash_op) {
      const std::string tag =
          std::string(kind.name) + "_" + std::to_string(crash_op);
      const std::string snap_dir = ScratchDir("sweep_snap_" + tag);
      const std::string wal_dir = ScratchDir("sweep_wal_" + tag);

      FaultPlan plan;
      plan.seed = 700 + crash_op;
      plan.skip_ops = crash_op;
      plan.max_faults = 1;
      kind.arm(&plan);
      FaultInjector fi(plan);

      Dataset data =
          MakeNamedDataset("IND", kSweepN, cfg.dim, cfg.params.seed);
      DiskManager disk;
      auto engine = OpenEngineOrDie(
          EngineConfig::FromDataset(&data, &disk,
                                    MakeScoring("Linear", cfg.dim))
              .WithWal(wal_dir, WalOptions{}, &fi));
      SnapshotStore store(snap_dir);
      if (!store.WriteArena(engine->flat_tree(), 0).ok()) {
        std::fprintf(stderr, "sweep arena failed\n");
        std::exit(1);
      }

      uint64_t acked = 0;
      for (uint64_t e = 1; e <= epochs; ++e) {
        if (engine->ApplyUpdates(EpochBatch(e, cfg.dim, 4)).ok()) {
          acked = e;
        } else {
          break;  // the injected crash hit this commit
        }
      }

      // Reference timeline: exactly the acked batches, no WAL.
      Dataset ref_data =
          MakeNamedDataset("IND", kSweepN, cfg.dim, cfg.params.seed);
      DiskManager ref_disk;
      auto reference = OpenEngineOrDie(EngineConfig::FromDataset(
          &ref_data, &ref_disk, MakeScoring("Linear", cfg.dim)));
      for (uint64_t e = 1; e <= acked; ++e) {
        if (!reference->ApplyUpdates(EpochBatch(e, cfg.dim, 4)).ok()) {
          std::fprintf(stderr, "sweep reference failed\n");
          std::exit(1);
        }
      }

      DiskManager disk2;
      auto restored = OpenEngineOrDie(
          EngineConfig::FromArena(snap_dir, &disk2,
                                  MakeScoring("Linear", cfg.dim))
              .WithWal(wal_dir));
      ++out.cases;
      out.acked_total += acked;
      if (restored->dataset_version() > acked) ++out.unacked_replayed;

      bool bitwise = restored->dataset_version() == acked;
      Rng probe_rng(61);
      for (int64_t q = 0; q < cfg.probes && bitwise; ++q) {
        Vec w = RandomQuery(probe_rng, static_cast<size_t>(cfg.dim));
        auto a = reference->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
        auto b = restored->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
        bitwise = a.ok() && b.ok() && a->topk.result == b->topk.result &&
                  a->topk.scores == b->topk.scores &&
                  a->topk.io.reads == b->topk.io.reads;
      }
      if (bitwise) ++out.survived;

      restored.reset();
      engine.reset();
      std::filesystem::remove_all(snap_dir);
      std::filesystem::remove_all(wal_dir);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  cfg.params.n = 8000;
  FlagSet flags;
  cfg.params.Register(&flags);
  std::string out_path = "BENCH_PR10.json";
  flags.AddInt("d", &cfg.dim, "dimensionality");
  flags.AddInt("ack_batches", &cfg.ack_batches,
               "update batches per ack-latency mode");
  flags.AddInt("batch_size", &cfg.batch_size,
               "inserts (and deletes) per update batch");
  flags.AddInt("probes", &cfg.probes, "bitwise probe queries");
  flags.AddInt("crash_points", &cfg.crash_points,
               "commit ordinals swept per damage kind");
  flags.AddDouble("max_ack_overhead", &cfg.max_ack_overhead,
                  "max acked p99 / no-WAL p99 at the default interval");
  flags.AddString("out", &out_path, "output JSON path");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  cfg.params.ApplyFullDefaults();

  std::printf("WAL durability bench (n=%lld, d=%lld, k=%lld, "
              "ack_batches=%lld, crash_points=%lld)\n",
              static_cast<long long>(cfg.params.n),
              static_cast<long long>(cfg.dim),
              static_cast<long long>(cfg.params.k),
              static_cast<long long>(cfg.ack_batches),
              static_cast<long long>(cfg.crash_points));

  // ----- ack latency vs commit interval -----
  std::vector<AckPoint> acks;
  acks.push_back(MeasureAckLatency(cfg, "no-wal", false, 0.0));
  acks.push_back(MeasureAckLatency(cfg, "wal-sync", true, 0.0));
  acks.push_back(MeasureAckLatency(cfg, "wal-w0.5", true, 0.5));
  acks.push_back(MeasureAckLatency(cfg, "wal-w2", true, 2.0));
  PrintTitle("ack latency per update batch");
  PrintHeader("mode", {"window_ms", "p50_ms", "p99_ms", "fsyncs"});
  for (const AckPoint& p : acks) {
    PrintRow(p.mode, {p.window_ms, p.p50_ms, p.p99_ms,
                      static_cast<double>(p.fsyncs)});
  }

  // ----- group-commit amortization -----
  std::vector<GroupPoint> groups;
  for (double w : {0.0, 1.0, 4.0}) {
    groups.push_back(MeasureGroupCommit(cfg, w));
  }
  PrintTitle("group commit (8 concurrent appenders)");
  PrintHeader("window_ms", {"appends", "fsyncs", "appends/fsync"});
  for (const GroupPoint& p : groups) {
    PrintRow(std::to_string(p.window_ms),
             {static_cast<double>(p.appends),
              static_cast<double>(p.fsyncs), p.amortization});
  }

  // ----- recovery vs tail length -----
  std::vector<RecoveryPoint> recoveries;
  for (size_t tail : {size_t{0}, size_t{8}, size_t{32}}) {
    recoveries.push_back(MeasureRecovery(cfg, tail));
  }
  PrintTitle("two-phase recovery vs WAL tail length");
  PrintHeader("tail", {"open_ms", "replayed", "bitwise"});
  bool recovery_bitwise = true;
  for (const RecoveryPoint& p : recoveries) {
    PrintRow(std::to_string(p.tail_batches),
             {p.open_ms, static_cast<double>(p.replayed),
              p.bitwise ? 1.0 : 0.0});
    recovery_bitwise = recovery_bitwise && p.bitwise &&
                       p.replayed == p.tail_batches;
  }

  // ----- crash-point sweep -----
  SweepResult sweep = CrashPointSweep(cfg);
  const bool zero_loss =
      sweep.survived == sweep.cases && sweep.unacked_replayed == 0;
  std::printf("\ncrash sweep: %zu cases, %zu acked batches total, "
              "%zu survived bitwise, %zu replayed past the ack -> %s\n",
              sweep.cases, sweep.acked_total, sweep.survived,
              sweep.unacked_replayed,
              zero_loss ? "zero loss" : "LOSS DETECTED");

  // ----- gate -----
  const double baseline_p99 = acks[0].p99_ms;
  const double wal_p99 = acks[1].p99_ms;
  const double ack_overhead =
      baseline_p99 <= 0.0 ? 0.0 : wal_p99 / baseline_p99;
  const bool ack_overhead_ok = ack_overhead <= cfg.max_ack_overhead;
  const bool pass = zero_loss && recovery_bitwise && ack_overhead_ok;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_wal_durability\",\n");
  std::fprintf(f,
               "  \"params\": {\"n\": %lld, \"d\": %lld, \"k\": %lld, "
               "\"ack_batches\": %lld, \"batch_size\": %lld, "
               "\"probes\": %lld, \"crash_points\": %lld, "
               "\"seed\": %lld, \"method\": \"FP\"},\n",
               static_cast<long long>(cfg.params.n),
               static_cast<long long>(cfg.dim),
               static_cast<long long>(cfg.params.k),
               static_cast<long long>(cfg.ack_batches),
               static_cast<long long>(cfg.batch_size),
               static_cast<long long>(cfg.probes),
               static_cast<long long>(cfg.crash_points),
               static_cast<long long>(cfg.params.seed));
  std::fprintf(f, "  \"ack_latency\": [\n");
  for (size_t i = 0; i < acks.size(); ++i) {
    const AckPoint& p = acks[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"window_ms\": %.2f, "
                 "\"with_wal\": %s, \"batches\": %zu, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"wal_p99_ms\": %.4f, "
                 "\"appends\": %llu, \"fsyncs\": %llu}%s\n",
                 p.mode.c_str(), p.window_ms, p.with_wal ? "true" : "false",
                 p.batches, p.p50_ms, p.p99_ms, p.wal_p99_ms,
                 static_cast<unsigned long long>(p.appends),
                 static_cast<unsigned long long>(p.fsyncs),
                 i + 1 < acks.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"group_commit\": [\n");
  for (size_t i = 0; i < groups.size(); ++i) {
    const GroupPoint& p = groups[i];
    std::fprintf(f,
                 "    {\"window_ms\": %.2f, \"threads\": %zu, "
                 "\"appends\": %llu, \"fsyncs\": %llu, "
                 "\"amortization\": %.4f, \"wall_ms\": %.4f}%s\n",
                 p.window_ms, p.threads,
                 static_cast<unsigned long long>(p.appends),
                 static_cast<unsigned long long>(p.fsyncs), p.amortization,
                 p.wall_ms, i + 1 < groups.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery\": [\n");
  for (size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryPoint& p = recoveries[i];
    std::fprintf(f,
                 "    {\"tail_batches\": %zu, \"open_ms\": %.4f, "
                 "\"replayed\": %zu, \"recovered_version\": %llu, "
                 "\"bitwise\": %s}%s\n",
                 p.tail_batches, p.open_ms, p.replayed,
                 static_cast<unsigned long long>(p.recovered_version),
                 p.bitwise ? "true" : "false",
                 i + 1 < recoveries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"crash_sweep\": {\"cases\": %zu, \"acked_total\": %zu, "
               "\"survived\": %zu, \"unacked_replayed\": %zu, "
               "\"zero_loss\": %s},\n",
               sweep.cases, sweep.acked_total, sweep.survived,
               sweep.unacked_replayed, zero_loss ? "true" : "false");
  std::fprintf(f,
               "  \"gate\": {\"ack_p99_baseline_ms\": %.4f, "
               "\"ack_p99_wal_ms\": %.4f, \"ack_overhead\": %.4f, "
               "\"max_ack_overhead\": %.2f, \"ack_overhead_ok\": %s, "
               "\"zero_loss\": %s, \"recovery_bitwise\": %s, "
               "\"pass\": %s}\n",
               baseline_p99, wal_p99, ack_overhead, cfg.max_ack_overhead,
               ack_overhead_ok ? "true" : "false",
               zero_loss ? "true" : "false",
               recovery_bitwise ? "true" : "false",
               pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\nwrote %s (ack p99 %.3fms -> %.3fms = %.2fx <= %.2fx: %s; "
              "sweep %s; recovery %s) -> %s\n",
              out_path.c_str(), baseline_p99, wal_p99, ack_overhead,
              cfg.max_ack_overhead, ack_overhead_ok ? "ok" : "OVER",
              zero_loss ? "zero-loss" : "LOSS",
              recovery_bitwise ? "bitwise" : "NOT BITWISE",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
