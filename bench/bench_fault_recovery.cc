// Fault-injection + crash-recovery benchmark (JSON + exit-code gated):
//
// 1. Recovery cost: push the engine through several update epochs,
//    persist each one as an arena file, then "crash" and measure the
//    restart path — directory scan + checksum validation
//    (RecoverLatestArena), then Open(FromArena(dir)) — and prove the
//    restored engine answers probe queries bit-identically (ids,
//    scores, simulated reads). A torn last arena (injected) must be
//    rejected by checksum with recovery falling back to the previous
//    valid epoch.
//
// 2. Availability under faults: replay one seeded trace through the
//    serving stack at increasing injected read-fault rates, retries on,
//    and report availability (served/offered), retry volume and
//    terminal kUnavailable degradation per rate.
//
// Emits BENCH_PR7.json (schema bench/BENCH_PR7.schema.json); exits
// non-zero unless recovery is bitwise-faithful, the torn arena is
// rejected, and availability at the gated fault rate clears
// --min_availability. Rates are per checked page read, so the gate is
// machine-portable: availability depends only on the fault schedule and
// the retry budget, never on wall-clock speed.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gir/batch_engine.h"
#include "serve/replay.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"

using namespace gir;
using namespace gir::bench;
using gir::serve::ReplayOptions;
using gir::serve::ReplayTrace;
using gir::serve::ServiceReport;
using gir::serve::Trace;
using gir::serve::TrafficConfig;

namespace {

struct BenchConfig {
  Params params;
  int64_t dim = 3;
  int64_t events = 300;
  int64_t epochs = 4;       // update batches (= arenas) before the crash
  int64_t probes = 16;      // bitwise-equality probe queries
  double gate_rate = 0.005;  // fault rate the availability gate applies to
  double min_availability = 0.99;
};

UpdateBatch MakeUpdateBatch(const Dataset& data, Rng& rng, size_t count) {
  UpdateBatch batch;
  const size_t dim = data.dim();
  for (size_t i = 0; i < count; ++i) {
    Vec v(dim);
    for (size_t j = 0; j < dim; ++j) v[j] = rng.Uniform();
    batch.inserts.push_back(std::move(v));
  }
  // Delete distinct live records (ids below the pre-batch size).
  while (batch.deletes.size() < count) {
    const RecordId id = static_cast<RecordId>(rng.UniformInt(data.size()));
    if (!data.IsLive(id)) continue;
    bool dup = false;
    for (RecordId d : batch.deletes) dup |= d == id;
    if (!dup) batch.deletes.push_back(id);
  }
  return batch;
}

struct RecoveryResult {
  uint64_t snapshot_bytes = 0;  // last intact arena file
  double write_ms = 0.0;    // last intact arena publish
  double recover_ms = 0.0;  // scan + validate every arena candidate
  double restore_ms = 0.0;  // Open(FromArena(dir)): scan + map
  uint64_t recovered_version = 0;
  size_t scanned = 0;
  size_t rejected = 0;
  bool recovered_bitwise = false;
  bool torn_rejected = false;
  bool torn_fallback_ok = false;
};

RecoveryResult MeasureRecovery(const BenchConfig& cfg,
                               const std::string& dir) {
  RecoveryResult out;
  Dataset data = MakeNamedDataset("IND", cfg.params.n, cfg.dim,
                                  cfg.params.seed);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", cfg.dim)));
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);

  Rng rng(static_cast<uint64_t>(cfg.params.seed) * 31 + 7);
  for (int64_t e = 0; e < cfg.epochs; ++e) {
    UpdateBatch batch = MakeUpdateBatch(engine->dataset(), rng, 64);
    Result<UpdateStats> up = engine->ApplyUpdates(batch);
    if (!up.ok()) {
      std::fprintf(stderr, "update: %s\n", up.status().ToString().c_str());
      std::exit(1);
    }
    Stopwatch sw;
    auto wrote = store.WriteArena(engine->flat_tree(), up->version);
    if (!wrote.ok()) {
      std::fprintf(stderr, "arena: %s\n",
                   wrote.status().ToString().c_str());
      std::exit(1);
    }
    out.write_ms = sw.ElapsedMillis();
    out.snapshot_bytes = wrote->bytes;
  }

  // "Crash": recover from disk into a brand-new engine.
  Stopwatch recover_sw;
  auto rec = store.RecoverLatestArena();
  out.recover_ms = recover_sw.ElapsedMillis();
  if (!rec.ok()) {
    std::fprintf(stderr, "recover: %s\n", rec.status().ToString().c_str());
    std::exit(1);
  }
  out.recovered_version = rec->version;
  out.scanned = rec->scanned;
  out.rejected = rec->rejected;
  // Restore = the one-call path a restarting process actually runs:
  // Open scans, validates and maps in one step (so this figure
  // includes its own recovery scan).
  DiskManager disk3;
  Stopwatch restore_sw;
  auto restored = OpenEngineOrDie(
      EngineConfig::FromArena(dir, &disk3, MakeScoring("Linear", cfg.dim)));
  out.restore_ms = restore_sw.ElapsedMillis();

  // Bitwise probes: ids, scores and charged simulated reads must all
  // match the surviving pre-crash engine.
  out.recovered_bitwise =
      restored->dataset_version() == engine->dataset_version();
  Rng probe_rng(99);
  for (int64_t q = 0; q < cfg.probes; ++q) {
    Vec w = RandomQuery(probe_rng, static_cast<size_t>(cfg.dim));
    auto a = engine->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
    auto b = restored->ComputeGir(w, cfg.params.k, Phase2Method::kFP);
    if (!a.ok() || !b.ok() || a->topk.result != b->topk.result ||
        a->topk.scores != b->topk.scores ||
        a->topk.io.reads != b->topk.io.reads) {
      out.recovered_bitwise = false;
      break;
    }
  }

  // Torn-tail drill: publish a newer arena whose data blocks never
  // fully hit the platter; recovery must reject it by checksum and keep
  // serving the previous epoch.
  FaultPlan torn_plan;
  torn_plan.seed = 1234;
  torn_plan.torn_write_rate = 1.0;
  FaultInjector torn(torn_plan);
  SnapshotStore faulty(dir, &torn);
  auto wrote =
      faulty.WriteArena(engine->flat_tree(), engine->dataset_version() + 1);
  if (wrote.ok() && wrote->injected == FaultInjector::WriteFault::kTorn) {
    auto rec2 = store.RecoverLatestArena();
    out.torn_rejected = rec2.ok() && rec2->rejected >= 1;
    out.torn_fallback_ok =
        rec2.ok() && rec2->version == engine->dataset_version();
  }
  std::filesystem::remove_all(dir);
  return out;
}

struct AvailabilityPoint {
  double fault_rate = 0.0;
  bool gated = false;
  serve::ServiceMetrics m;
  uint64_t injected_read_faults = 0;
};

AvailabilityPoint MeasureAvailability(const BenchConfig& cfg, double rate,
                                      bool gated) {
  TrafficConfig t;
  t.seed = static_cast<uint64_t>(cfg.params.seed) * 977 + 5;
  t.dim = static_cast<size_t>(cfg.dim);
  t.k = static_cast<size_t>(cfg.params.k);
  t.events = static_cast<size_t>(cfg.events);
  t.base_qps = 3000.0;
  t.key_pool = 8;
  t.zipf_s = 1.1;
  t.jitter_prob = 0.3;
  t.initial_records = static_cast<size_t>(cfg.params.n);
  Result<Trace> trace = serve::GenerateTrace(t);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    std::exit(1);
  }

  Dataset data = MakeNamedDataset("IND", cfg.params.n, cfg.dim,
                                  cfg.params.seed);
  DiskManager disk;
  GirEngineOptions eopts;
  eopts.materialize_polytope = false;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", cfg.dim), eopts));
  BatchOptions bopts;
  bopts.threads = 1;
  bopts.cache_capacity = 0;  // every query exercises the storage path
  bopts.exec.shared_traversal = true;
  bopts.exec.max_retries = 3;
  bopts.exec.retry_backoff_ms = 0.01;
  BatchEngine batch(engine.get(), bopts);

  FaultPlan plan;
  plan.seed = 4242;
  plan.read_error_rate = rate;
  FaultInjector injector(plan);
  if (rate > 0.0) disk.AttachFaultInjector(&injector);

  // Shed-free replay: availability here isolates storage-fault
  // degradation, not load shedding (that is bench_service_sla's axis).
  ReplayOptions ro;
  ro.admission.max_batch = 32;
  ro.admission.max_wait_ms = 2.0;
  ro.admission.deadline_ms = 1e12;
  ro.admission.queue_capacity = 1 << 20;
  ro.admission.max_width = 32;
  ro.shed_on_dispatch = false;
  Result<ServiceReport> report = ReplayTrace(*trace, &batch, ro);
  disk.AttachFaultInjector(nullptr);
  if (!report.ok()) {
    std::fprintf(stderr, "replay: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }

  AvailabilityPoint p;
  p.fault_rate = rate;
  p.gated = gated;
  p.m = report->metrics;
  p.injected_read_faults = injector.read_faults();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  cfg.params.n = 20000;
  FlagSet flags;
  cfg.params.Register(&flags);
  std::string out_path = "BENCH_PR7.json";
  std::string snapshot_dir =
      (std::filesystem::temp_directory_path() / "gir_bench_snapshots")
          .string();
  flags.AddInt("d", &cfg.dim, "dimensionality");
  flags.AddInt("events", &cfg.events, "trace events per availability point");
  flags.AddInt("epochs", &cfg.epochs, "update epochs persisted pre-crash");
  flags.AddInt("probes", &cfg.probes, "bitwise probe queries post-recovery");
  flags.AddDouble("gate_rate", &cfg.gate_rate,
                  "read-fault rate the availability gate applies to");
  flags.AddDouble("min_availability", &cfg.min_availability,
                  "required served/offered fraction at the gated rate");
  flags.AddString("snapshot_dir", &snapshot_dir,
                  "scratch directory for arena files");
  flags.AddString("out", &out_path, "output JSON path");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  cfg.params.ApplyFullDefaults();

  std::printf("Fault/recovery bench (n=%lld, d=%lld, k=%lld, epochs=%lld, "
              "events=%lld)\n",
              static_cast<long long>(cfg.params.n),
              static_cast<long long>(cfg.dim),
              static_cast<long long>(cfg.params.k),
              static_cast<long long>(cfg.epochs),
              static_cast<long long>(cfg.events));

  // ----- crash-recovery cost + fidelity -----
  RecoveryResult rec = MeasureRecovery(cfg, snapshot_dir);
  PrintTitle("crash recovery");
  PrintHeader("phase", {"ms"});
  PrintRow("write", {rec.write_ms});
  PrintRow("recover", {rec.recover_ms});
  PrintRow("restore", {rec.restore_ms});
  std::printf("arena %.1f KiB, recovered epoch %llu (scanned %zu, "
              "rejected %zu), bitwise %s, torn tail %s\n",
              static_cast<double>(rec.snapshot_bytes) / 1024.0,
              static_cast<unsigned long long>(rec.recovered_version),
              rec.scanned, rec.rejected,
              rec.recovered_bitwise ? "yes" : "NO",
              rec.torn_rejected && rec.torn_fallback_ok ? "rejected"
                                                        : "NOT REJECTED");

  // ----- availability vs injected fault rate -----
  const std::vector<double> rates = {0.0, 0.002, cfg.gate_rate, 0.01};
  PrintTitle("availability vs read-fault rate (retries on)");
  PrintHeader("rate", {"offered", "served", "failed", "retries",
                       "salvaged", "availability"});
  std::vector<AvailabilityPoint> points;
  const AvailabilityPoint* gate_point = nullptr;
  for (double rate : rates) {
    const bool gated = rate == cfg.gate_rate;
    AvailabilityPoint p = MeasureAvailability(cfg, rate, gated);
    PrintRow(std::to_string(rate),
             {static_cast<double>(p.m.requests),
              static_cast<double>(p.m.served),
              static_cast<double>(p.m.failed),
              static_cast<double>(p.m.fault_retries),
              static_cast<double>(p.m.retry_successes),
              p.m.Availability()});
    points.push_back(p);
    if (gated) gate_point = &points.back();
  }
  if (gate_point == nullptr) {
    std::fprintf(stderr, "no rate matches gate_rate %.4f\n", cfg.gate_rate);
    return 1;
  }

  // ----- gate -----
  const double availability_at_gate = gate_point->m.Availability();
  const bool availability_ok =
      availability_at_gate >= cfg.min_availability;
  const bool fault_free_clean = points[0].m.failed == 0;
  const bool pass = rec.recovered_bitwise && rec.torn_rejected &&
                    rec.torn_fallback_ok && availability_ok &&
                    fault_free_clean;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_fault_recovery\",\n");
  std::fprintf(f,
               "  \"params\": {\"n\": %lld, \"d\": %lld, \"k\": %lld, "
               "\"events\": %lld, \"epochs\": %lld, \"probes\": %lld, "
               "\"seed\": %lld, \"method\": \"FP\"},\n",
               static_cast<long long>(cfg.params.n),
               static_cast<long long>(cfg.dim),
               static_cast<long long>(cfg.params.k),
               static_cast<long long>(cfg.events),
               static_cast<long long>(cfg.epochs),
               static_cast<long long>(cfg.probes),
               static_cast<long long>(cfg.params.seed));
  std::fprintf(f,
               "  \"recovery\": {\"snapshot_bytes\": %llu, "
               "\"write_ms\": %.4f, \"recover_ms\": %.4f, "
               "\"restore_ms\": %.4f, \"recovered_version\": %llu, "
               "\"scanned\": %zu, \"rejected\": %zu, "
               "\"recovered_bitwise\": %s, \"torn_rejected\": %s, "
               "\"torn_fallback_ok\": %s},\n",
               static_cast<unsigned long long>(rec.snapshot_bytes),
               rec.write_ms, rec.recover_ms, rec.restore_ms,
               static_cast<unsigned long long>(rec.recovered_version),
               rec.scanned, rec.rejected,
               rec.recovered_bitwise ? "true" : "false",
               rec.torn_rejected ? "true" : "false",
               rec.torn_fallback_ok ? "true" : "false");
  std::fprintf(f, "  \"availability\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const AvailabilityPoint& p = points[i];
    std::fprintf(
        f,
        "    {\"fault_rate\": %.4f, \"gated\": %s, \"requests\": %zu, "
        "\"served\": %zu, \"failed\": %zu, \"unavailable\": %zu, "
        "\"fault_retries\": %llu, \"retry_successes\": %llu, "
        "\"injected_read_faults\": %llu, \"availability\": %.6f}%s\n",
        p.fault_rate, p.gated ? "true" : "false", p.m.requests, p.m.served,
        p.m.failed, p.m.unavailable,
        static_cast<unsigned long long>(p.m.fault_retries),
        static_cast<unsigned long long>(p.m.retry_successes),
        static_cast<unsigned long long>(p.injected_read_faults),
        p.m.Availability(), i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gate\": {\"gate_rate\": %.4f, "
               "\"availability_at_gate\": %.6f, "
               "\"min_availability\": %.4f, \"fault_free_clean\": %s, "
               "\"recovered_bitwise\": %s, \"torn_fallback_ok\": %s, "
               "\"pass\": %s}\n",
               cfg.gate_rate, availability_at_gate, cfg.min_availability,
               fault_free_clean ? "true" : "false",
               rec.recovered_bitwise ? "true" : "false",
               rec.torn_fallback_ok ? "true" : "false",
               pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("\nwrote %s (recovery %.2fms + restore %.2fms, bitwise %s; "
              "availability at %.3f faults/read: %.4f %s %.2f: %s)\n",
              out_path.c_str(), rec.recover_ms, rec.restore_ms,
              rec.recovered_bitwise ? "yes" : "NO", cfg.gate_rate,
              availability_at_gate, availability_ok ? ">=" : "<",
              cfg.min_availability, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
