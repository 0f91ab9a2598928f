// write_mixed_d4: durable writes beside reads. One closed-loop writer
// sends small insert+delete batches through BatchEngine::ApplyUpdates
// with the WAL attached (default WalOptions: every ack waits for its
// own fsync); closed-loop Zipf readers share the BatchEngine, so cache
// invalidation runs. At this n the whole-dataset refreeze dominates
// the ack. The writer sends a fixed number of batches per requested
// second, so the reopen afterwards replays a tail of the same size on
// every commit.
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common/stopwatch.h"
#include "gir/batch_engine.h"
#include "serve/traffic_gen.h"
#include "storage/snapshot_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gir;

struct Read {
  size_t weights = 0;  // index into the reader's weight stream
  std::vector<RecordId> topk;
  uint64_t min_epoch = 0;  // dataset_version() before / after the call:
  uint64_t max_epoch = 0;  // the answer must be right at one of them
};

// Random small batch: `deletes` live ids (swap-removed from `live`) and
// `inserts` fresh points, whose ids the engine assigns in order.
UpdateBatch NextBatch(Rng& rng, size_t dim, size_t inserts, size_t deletes,
                      std::vector<RecordId>* live, RecordId* next_id) {
  UpdateBatch batch;
  for (size_t d = 0; d < deletes; ++d) {
    const size_t at = rng.UniformInt(live->size());
    batch.deletes.push_back((*live)[at]);
    (*live)[at] = live->back();
    live->pop_back();
  }
  for (size_t i = 0; i < inserts; ++i) {
    Vec p(dim);
    for (double& x : p) x = rng.Uniform();
    batch.inserts.push_back(std::move(p));
    live->push_back((*next_id)++);
  }
  return batch;
}

void ApplyToDataset(const UpdateBatch& batch, Dataset* data) {
  for (RecordId id : batch.deletes) data->MarkDeleted(id);
  for (const Vec& p : batch.inserts) data->Append(p);
}

void TraceAck(Tracer* tracer, double start_us, double end_us,
              const UpdateStats& st, const WalWriter::Stats& before,
              const WalWriter::Stats& after) {
  const uint64_t root = tracer->NewId();
  Span ack;
  ack.name = "write.ack";
  ack.start_us = start_us;
  ack.end_us = end_us;
  ack.id = root;
  ack.request = root;
  ack.args = {{"inserts", static_cast<double>(st.applied_inserts)},
              {"deletes", static_cast<double>(st.applied_deletes)},
              {"wal_appends",
               static_cast<double>(after.appends - before.appends)},
              {"wal_fsyncs", static_cast<double>(after.fsyncs - before.fsyncs)},
              {"cache_entries", static_cast<double>(st.cache_entries_before)},
              {"cache_lp_tests", static_cast<double>(st.cache_lp_tests)},
              {"cache_survived", static_cast<double>(st.cache_survived)}};
  tracer->Record(std::move(ack));
  // UpdateStats splits the call in the order ApplyUpdates runs it.
  double at = start_us;
  const auto child = [&](const char* name, double ms) {
    Span s;
    s.name = name;
    s.start_us = at;
    s.end_us = at + 1000.0 * ms;
    s.id = tracer->NewId();
    s.parent = root;
    s.request = root;
    at = s.end_us;
    tracer->Record(std::move(s));
  };
  child("storage.wal.append", st.wal_ms);
  child("index.mutate", st.apply_ms);
  child("index.refreeze", st.refreeze_ms);
  child("gir.cache.invalidate", st.invalidate_ms);
}

}  // namespace

RawResult RunWrite(const Flags& flags, Tracer* tracer) {
  const size_t dim = static_cast<size_t>(flags.Int("dim"));
  const size_t k = static_cast<size_t>(flags.Int("k"));
  const int setups = static_cast<int>(flags.Int("setup_repeats"));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  const size_t read_batch = static_cast<size_t>(flags.Int("read_batch"));
  const size_t inserts = static_cast<size_t>(flags.Int("inserts_per_batch"));
  const size_t deletes = static_cast<size_t>(flags.Int("deletes_per_batch"));
  const size_t batches = static_cast<size_t>(
      flags.Num("batches_per_second") * flags.Num("seconds") + 0.5);
  const std::filesystem::path work = flags.Str("work_dir");
  const Dataset base = MakeDataset(flags);

  BatchOptions bopts;
  bopts.threads = static_cast<size_t>(flags.Int("threads"));
  bopts.cache_capacity = static_cast<size_t>(flags.Int("cache_capacity"));

  // Reader stream: Zipf-keyed weights from the serving trace generator.
  serve::TrafficConfig traffic;
  traffic.seed = seed;
  traffic.dim = dim;
  traffic.k = k;
  traffic.events = static_cast<size_t>(flags.Int("read_stream"));
  traffic.key_pool = static_cast<size_t>(flags.Int("key_pool"));
  traffic.zipf_s = flags.Num("zipf_s");
  traffic.jitter = flags.Num("jitter");
  traffic.jitter_prob = flags.Num("jitter_prob");
  Result<serve::Trace> stream = serve::GenerateTrace(traffic);
  if (!stream.ok()) Fail(stream.status().ToString());
  std::vector<Vec> read_weights;
  for (const serve::TraceEvent& ev : stream->events) {
    read_weights.push_back(ev.weights);
  }

  RawResult raw;
  const std::string wal_dir = (work / "wal").string();
  const std::string snap_dir = (work / "snap").string();
  std::unique_ptr<Dataset> master;
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<GirEngine> engine;
  std::unique_ptr<BatchEngine> batch_engine;
  for (int i = 0; i < setups; ++i) {
    batch_engine.reset();
    engine.reset();
    std::filesystem::remove_all(work);
    master = std::make_unique<Dataset>(base);
    disk = std::make_unique<DiskManager>();
    Stopwatch sw;
    const double t0 = tracer->NowUs();
    engine = OpenEngineOrDie(
        EngineConfig::FromDataset(master.get(), disk.get(),
                                  MakeScoring("Linear", dim))
            .WithWal(wal_dir));
    batch_engine = std::make_unique<BatchEngine>(engine.get(), bopts);
    const double t1 = tracer->NowUs();
    SnapshotStore store(snap_dir);
    Result<GirEngine::CheckpointStats> ckpt = engine->Checkpoint(&store);
    if (!ckpt.ok()) Fail("checkpoint: " + ckpt.status().ToString());
    raw.setup_s.push_back(sw.ElapsedSeconds());
    if (tracer->enabled()) {
      Span open;
      open.name = "setup.open";
      open.start_us = t0;
      open.end_us = t1;
      open.id = tracer->NewId();
      tracer->Record(std::move(open));
      Span cp;
      cp.name = "storage.checkpoint";
      cp.start_us = t1;
      cp.end_us = tracer->NowUs();
      cp.id = tracer->NewId();
      cp.args = {{"arena_bytes", static_cast<double>(ckpt->arena_bytes)}};
      tracer->Record(std::move(cp));
    }
  }

  // ----- measured phase: one writer, one reader loop -----
  std::vector<UpdateBatch> applied;
  std::vector<Read> reads;
  std::atomic<bool> writer_done{false};
  int64_t write_errors = 0;
  int64_t read_errors = 0;
  uint64_t last_acked = 0;
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch phase;
  std::thread writer([&] {
    Rng rng(seed * 7919ULL + 3);
    std::vector<RecordId> live(base.size());
    for (size_t i = 0; i < live.size(); ++i) {
      live[i] = static_cast<RecordId>(i);
    }
    RecordId next_id = static_cast<RecordId>(base.size());
    for (size_t b = 0; b < batches; ++b) {
      UpdateBatch batch =
          NextBatch(rng, dim, inserts, deletes, &live, &next_id);
      const WalWriter::Stats before = engine->wal_writer_stats();
      const double t0 = tracer->NowUs();
      Stopwatch sw;
      Result<UpdateStats> st = batch_engine->ApplyUpdates(batch);
      const double ms = sw.ElapsedMillis();
      if (!st.ok()) {
        // A refused batch leaves the engine untouched; the run is
        // already failed, so stop writing.
        ++write_errors;
        break;
      }
      raw.ack_ms.push_back(ms);
      last_acked = st->version;
      applied.push_back(std::move(batch));
      if (tracer->enabled()) {
        TraceAck(tracer, t0, tracer->NowUs(), *st, before,
                 engine->wal_writer_stats());
      }
    }
    writer_done.store(true);
  });
  std::thread reader([&] {
    size_t cursor = 0;
    std::vector<Vec> round(read_batch);
    std::vector<size_t> round_ids(read_batch);
    while (!writer_done.load()) {
      for (size_t q = 0; q < read_batch; ++q) {
        round_ids[q] = cursor;
        round[q] = read_weights[cursor];
        cursor = (cursor + 1) % read_weights.size();
      }
      const uint64_t v0 = engine->dataset_version();
      const double t0 = tracer->NowUs();
      Stopwatch sw;
      Result<BatchResult> r =
          batch_engine->ComputeBatch(round, k, Phase2Method::kFP);
      const double ms = sw.ElapsedMillis();
      const uint64_t v1 = engine->dataset_version();
      if (!r.ok()) {
        read_errors += static_cast<int64_t>(read_batch);
        continue;
      }
      if (tracer->enabled()) TraceBatch(tracer, t0, tracer->NowUs(), *r);
      for (size_t q = 0; q < read_batch; ++q) {
        BatchItem& item = r->items[q];
        if (!item.status.ok()) {
          ++read_errors;
          continue;
        }
        raw.query_ms.push_back(ms);
        reads.push_back({round_ids[q], std::move(item.topk), v0, v1});
      }
    }
  });
  writer.join();
  reader.join();
  raw.query_phase_s = phase.ElapsedSeconds();
  raw.cpu_s = ProcessCpuSeconds() - cpu0;
  raw.peak_rss_kb = PeakRssKb();

  // Probe answers of the live engine, to compare after the reopen.
  Rng probe_rng(seed * 104729ULL + 11);
  std::vector<Vec> probes;
  std::vector<GirComputation> live_answers;
  for (int64_t p = 0; p < flags.Int("probes"); ++p) {
    probes.push_back(RandomWeights(probe_rng, dim));
    Result<GirComputation> a =
        engine->ComputeGir(probes.back(), k, Phase2Method::kFP);
    if (!a.ok()) Fail("probe on live engine: " + a.status().ToString());
    live_answers.push_back(std::move(a).value());
  }
  const uint64_t live_version = engine->dataset_version();
  batch_engine.reset();
  engine.reset();

  // ----- recovery -----
  if (tracer->enabled()) {
    // The arena alone, without the WAL: storage.arena.open.
    DiskManager arena_disk;
    const double t0 = tracer->NowUs();
    std::unique_ptr<GirEngine> arena = OpenEngineOrDie(EngineConfig::FromArena(
        snap_dir, &arena_disk, MakeScoring("Linear", dim)));
    Span s;
    s.name = "storage.arena.open";
    s.start_us = t0;
    s.end_us = tracer->NowUs();
    s.id = tracer->NewId();
    tracer->Record(std::move(s));
  }
  int64_t recovery_faults = 0;
  // The reopen replays the whole measured tail, one refreeze per batch,
  // so a single timed open is seconds of work.
  DiskManager reopen_disk;
  const double t0 = tracer->NowUs();
  Stopwatch recover_sw;
  Result<std::unique_ptr<GirEngine>> opened = GirEngine::Open(
      EngineConfig::FromArena(snap_dir, &reopen_disk,
                              MakeScoring("Linear", dim))
          .WithWal(wal_dir));
  raw.recover_s = recover_sw.ElapsedSeconds();
  if (!opened.ok()) Fail("reopen: " + opened.status().ToString());
  std::unique_ptr<GirEngine> reopened = std::move(opened).value();
  const GirEngine::WalRecoveryStats& rec = reopened->wal_recovery();
  if (rec.replayed_batches != applied.size()) ++recovery_faults;
  if (tracer->enabled()) {
    Span s;
    s.name = "storage.recovery.open";
    s.start_us = t0;
    s.end_us = tracer->NowUs();
    s.id = tracer->NewId();
    s.args = {{"replayed_batches", static_cast<double>(rec.replayed_batches)},
              {"recovered_epoch", static_cast<double>(rec.recovered_epoch)},
              {"replayed_to", static_cast<double>(rec.replayed_to)},
              {"torn_truncated", static_cast<double>(rec.torn_truncated)}};
    tracer->Record(std::move(s));
  }

  raw.info["peak_rss_kb_after_recovery"] = static_cast<double>(PeakRssKb());
  // ----- checks, outside the timed region -----
  Stopwatch check_sw;
  if (reopened->dataset_version() != last_acked ||
      live_version != last_acked) {
    ++recovery_faults;
  }
  for (size_t p = 0; p < probes.size(); ++p) {
    Result<GirComputation> again =
        reopened->ComputeGir(probes[p], k, Phase2Method::kFP);
    if (!again.ok() || !SameGir(live_answers[p].topk, live_answers[p].region,
                                again->topk, again->region)) {
      ++recovery_faults;
    }
  }
  reopened.reset();
  std::filesystem::remove_all(work);

  if (flags.Has("inject_wrong_answer") && !reads.empty()) {
    CorruptAnswer(base, &reads.front().topk);
  }
  // Each read against a scan of the live records of the epochs it may
  // have run on, rebuilding the epochs by replaying the acked batches.
  std::vector<uint8_t> matched(reads.size(), 0);
  Dataset epoch_data = base;
  const std::unique_ptr<ScoringFunction> scoring = MakeScoring("Linear", dim);
  for (uint64_t e = 0; e <= applied.size(); ++e) {
    if (e > 0) ApplyToDataset(applied[e - 1], &epoch_data);
    // Zipf keys repeat, so one scan per distinct weight vector.
    std::map<size_t, size_t> slot;  // read_weights index -> truth slot
    std::vector<Vec> weights;
    for (size_t i = 0; i < reads.size(); ++i) {
      if (!matched[i] && reads[i].min_epoch <= e && e <= reads[i].max_epoch &&
          slot.emplace(reads[i].weights, weights.size()).second) {
        weights.push_back(read_weights[reads[i].weights]);
      }
    }
    if (weights.empty()) continue;
    const std::vector<std::vector<double>> truth =
        ScanTopKScores(epoch_data, *scoring, weights, k, bopts.threads + 1);
    for (size_t i = 0; i < reads.size(); ++i) {
      if (!matched[i] && reads[i].min_epoch <= e && e <= reads[i].max_epoch &&
          MatchesTopK(epoch_data, *scoring, read_weights[reads[i].weights],
                      reads[i].topk, truth[slot.at(reads[i].weights)])) {
        matched[i] = 1;
      }
    }
  }
  for (uint8_t m : matched) raw.mismatches += m ? 0 : 1;
  raw.mismatches += recovery_faults;

  const int64_t acks = static_cast<int64_t>(raw.ack_ms.size());
  raw.queries = static_cast<int64_t>(reads.size());
  raw.ops = raw.queries + acks;
  raw.attempted = raw.ops + read_errors + write_errors;
  raw.failed = read_errors + write_errors + raw.mismatches;
  raw.info["acked_batches"] = static_cast<double>(acks);
  raw.info["last_acked_epoch"] = static_cast<double>(last_acked);
  raw.info["check_s"] = check_sw.ElapsedSeconds();
  return raw;
}

}  // namespace perfbench
