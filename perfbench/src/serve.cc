// serve_zipf_d4: the front door. A Zipf-keyed trace (preset keys plus
// jittered personalised queries) is replayed open-loop through
// serve::ReplayTrace on a cached, shared-traversal BatchEngine. The key
// pool exceeds the cache, so LRU eviction runs; Phase 2 runs only for
// misses. The offered rate is a fixed input, never derived from a
// calibration, so a faster engine shows as capacity, not as more load.
#include <map>
#include <memory>

#include "common/stopwatch.h"
#include "gir/batch_engine.h"
#include "serve/replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gir;
using serve::ReplayTrace;
using serve::RequestOutcome;
using serve::ServiceReport;
using serve::Trace;
using serve::TraceEvent;

// Consecutive slices of one long trace, each rebased to start at zero.
// ReplayTrace runs a whole trace per call, so replaying slices until
// --seconds pass keeps the run time-bounded.
std::vector<Trace> SliceTrace(const Trace& full, size_t events_per_slice) {
  std::vector<Trace> slices;
  for (size_t begin = 0; begin + events_per_slice <= full.events.size();
       begin += events_per_slice) {
    Trace t;
    t.config = full.config;
    const double origin = full.events[begin].arrival_ms;
    for (size_t i = begin; i < begin + events_per_slice; ++i) {
      TraceEvent ev = full.events[i];
      ev.arrival_ms -= origin;
      t.events.push_back(std::move(ev));
    }
    t.queries = t.events.size();
    t.duration_ms = t.events.back().arrival_ms;
    slices.push_back(std::move(t));
  }
  return slices;
}

// Records one request's RequestTiming split on the virtual service
// clock (pid 2), anchored at the real start of its replay call.
void TraceRequest(Tracer* tracer, double anchor_us, uint64_t parent,
                  const RequestOutcome& out) {
  const serve::RequestTiming& t = out.timing;
  const uint64_t root = tracer->NewId();
  const auto span = [&](const char* name, double from_ms, double to_ms,
                        uint64_t id, uint64_t parent_id) {
    Span s;
    s.name = name;
    s.start_us = anchor_us + 1000.0 * from_ms;
    s.end_us = anchor_us + 1000.0 * to_ms;
    s.id = id;
    s.parent = parent_id;
    s.request = root;
    s.track = static_cast<int>(out.id % 16);
    s.virtual_clock = true;
    tracer->Record(std::move(s));
  };
  span("serve.request", t.enqueue_ms, t.reply_ms, root, parent);
  span("serve.admission.queue_wait", t.enqueue_ms, t.admit_ms,
       tracer->NewId(), root);
  span("serve.dispatch_wait", t.admit_ms, t.compute_start_ms, tracer->NewId(),
       root);
  span("serve.batch_compute", t.compute_start_ms, t.compute_end_ms,
       tracer->NewId(), root);
}

}  // namespace

void TraceBatch(Tracer* tracer, double start_us, double end_us,
                const BatchResult& result) {
  const uint64_t batch_id = tracer->NewId();
  const BatchStats& st = result.stats;
  Span batch;
  batch.name = "gir.batch";
  batch.start_us = start_us;
  batch.end_us = end_us;
  batch.id = batch_id;
  batch.request = batch_id;
  batch.args = {{"queries", static_cast<double>(st.queries)},
                {"exact_hits", static_cast<double>(st.exact_hits)},
                {"partial_hits", static_cast<double>(st.partial_hits)},
                {"misses", static_cast<double>(st.misses)},
                {"duplicate_hits", static_cast<double>(st.duplicate_hits)},
                {"shared_groups", static_cast<double>(st.shared_groups)},
                {"charged_reads", static_cast<double>(st.charged_reads)},
                {"amortized_reads", static_cast<double>(st.amortized_reads)}};
  tracer->Record(std::move(batch));
  int track = 1;
  for (const BatchItem& item : result.items) {
    if (!item.computed.has_value()) continue;
    const GirStats& g = item.computed->stats;
    const uint64_t query_id = tracer->NewId();
    Span query;
    query.name = "gir.query";
    query.start_us = start_us;
    query.end_us = start_us + 1000.0 * item.latency_ms;
    query.id = query_id;
    query.parent = batch_id;
    query.request = batch_id;
    query.track = track;
    double at = start_us;
    const auto child = [&](const char* name, double ms,
                           std::vector<std::pair<std::string, double>> args) {
      Span s;
      s.name = name;
      s.start_us = at;
      s.end_us = at + 1000.0 * ms;
      s.id = tracer->NewId();
      s.parent = query_id;
      s.request = batch_id;
      s.track = track;
      s.args = std::move(args);
      at = s.end_us;
      tracer->Record(std::move(s));
    };
    child("topk.brs", g.topk_cpu_ms,
          {{"reads", static_cast<double>(g.topk_reads)}});
    child("gir.phase1", g.phase1_cpu_ms, {});
    child("gir.phase2", g.phase2_cpu_ms,
          {{"reads", static_cast<double>(g.phase2_reads)},
           {"candidates", static_cast<double>(g.candidates)},
           {"star_facets", static_cast<double>(g.star_facets)},
           {"constraints", static_cast<double>(g.constraints)}});
    child("geom.intersect", g.intersect_cpu_ms, {});
    tracer->Record(std::move(query));
    ++track;
  }
}

RawResult RunServe(const Flags& flags, Tracer* tracer) {
  const size_t dim = static_cast<size_t>(flags.Int("dim"));
  const size_t k = static_cast<size_t>(flags.Int("k"));
  const int setups = static_cast<int>(flags.Int("setup_repeats"));
  const double seconds = flags.Num("seconds");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  const Dataset data = MakeDataset(flags);

  BatchOptions bopts;
  bopts.threads = static_cast<size_t>(flags.Int("threads"));
  bopts.cache_capacity = static_cast<size_t>(flags.Int("cache_capacity"));
  bopts.exec.shared_traversal = true;

  serve::TrafficConfig traffic;
  traffic.seed = seed;
  traffic.dim = dim;
  traffic.k = k;
  traffic.events = static_cast<size_t>(flags.Int("trace_events"));
  traffic.base_qps = flags.Num("offered_qps");
  traffic.key_pool = static_cast<size_t>(flags.Int("key_pool"));
  traffic.zipf_s = flags.Num("zipf_s");
  traffic.jitter = flags.Num("jitter");
  traffic.jitter_prob = flags.Num("jitter_prob");
  Result<Trace> full = serve::GenerateTrace(traffic);
  if (!full.ok()) Fail(full.status().ToString());
  const std::vector<Trace> slices = SliceTrace(
      *full, static_cast<size_t>(flags.Int("slice_events")));
  const size_t warmup = static_cast<size_t>(flags.Int("warmup_slices"));

  serve::ReplayOptions ropts;
  ropts.admission.max_batch = static_cast<size_t>(flags.Int("max_batch"));
  ropts.admission.max_wait_ms = flags.Num("max_wait_ms");
  ropts.admission.deadline_ms = flags.Num("deadline_ms");
  ropts.method = Phase2Method::kFP;

  RawResult raw;
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<GirEngine> engine;
  std::unique_ptr<BatchEngine> batch;
  for (int i = 0; i < setups; ++i) {
    batch.reset();
    engine.reset();
    disk = std::make_unique<DiskManager>();
    Stopwatch sw;
    engine = OpenEngineOrDie(EngineConfig::FromDataset(
        &data, disk.get(), MakeScoring("Linear", dim)));
    batch = std::make_unique<BatchEngine>(engine.get(), bopts);
    raw.setup_s.push_back(sw.ElapsedSeconds());
  }
  // Traced run only: a second BatchEngine over the same engine re-runs
  // every batch ReplayTrace formed through ComputeBatch, whose
  // BatchStats and per-query GirStats ReplayTrace does not return.
  std::unique_ptr<BatchEngine> shadow;
  if (tracer->enabled()) {
    shadow = std::make_unique<BatchEngine>(engine.get(), bopts);
  }

  struct Served {
    const Vec* weights;
    std::vector<RecordId> topk;
  };
  std::vector<Served> served;
  int64_t shed = 0;
  int64_t errors = 0;
  double replay_s = 0.0;
  size_t next = 0;
  double cpu0 = 0.0;
  for (; next < slices.size(); ++next) {
    const bool measured = next >= warmup;
    if (measured && replay_s >= seconds) break;
    if (next == warmup) cpu0 = ProcessCpuSeconds();
    const Trace& slice = slices[next];
    const double start_us = tracer->NowUs();
    Stopwatch sw;
    Result<ServiceReport> report = ReplayTrace(slice, batch.get(), ropts);
    const double elapsed_s = sw.ElapsedSeconds();
    if (!report.ok()) Fail("replay: " + report.status().ToString());
    if (tracer->enabled()) {
      // Batches as ReplayTrace formed them: requests sharing a compute
      // start ran in one ComputeBatch call.
      std::map<double, std::vector<Vec>> formed;
      for (const RequestOutcome& out : report->outcomes) {
        if (out.status.ok()) {
          formed[out.timing.compute_start_ms].push_back(
              slice.events[out.id].weights);
        }
      }
      for (const auto& [start, weights] : formed) {
        const double b0 = tracer->NowUs();
        Result<BatchResult> r =
            shadow->ComputeBatch(weights, k, Phase2Method::kFP);
        if (measured && r.ok()) TraceBatch(tracer, b0, tracer->NowUs(), *r);
      }
    }
    if (!measured) continue;
    replay_s += elapsed_s;
    if (tracer->enabled()) {
      const serve::ServiceMetrics& m = report->metrics;
      const uint64_t id = tracer->NewId();
      Span s;
      s.name = "serve.replay";
      s.start_us = start_us;
      s.end_us = start_us + 1e6 * elapsed_s;
      s.id = id;
      s.request = id;
      s.args = {{"served", static_cast<double>(m.served)},
                {"shed", static_cast<double>(m.shed)},
                {"batches", static_cast<double>(m.batches)},
                {"batch_size", m.mean_batch_occupancy},
                {"charged_reads", static_cast<double>(report->charged_reads)},
                {"amortized_reads",
                 static_cast<double>(report->amortized_reads)}};
      tracer->Record(std::move(s));
      for (const RequestOutcome& out : report->outcomes) {
        TraceRequest(tracer, start_us, id, out);
      }
    }
    for (RequestOutcome& out : report->outcomes) {
      if (out.timing.shed) {
        ++shed;
      } else if (!out.status.ok()) {
        ++errors;
      } else {
        raw.query_ms.push_back(out.timing.Latency());
        served.push_back({&slice.events[out.id].weights, std::move(out.topk)});
      }
    }
  }
  raw.cpu_s = ProcessCpuSeconds() - cpu0;
  raw.peak_rss_kb = PeakRssKb();
  raw.query_phase_s = replay_s;
  if (replay_s < seconds) Fail("trace exhausted before --seconds of replay");

  // ----- checks, outside the timed region -----
  Stopwatch check_sw;
  if (flags.Has("inject_wrong_answer") && !served.empty()) {
    CorruptAnswer(data, &served.front().topk);
  }
  // Every top-k against a scan (one scan per distinct weight vector:
  // preset keys repeat bitwise) ...
  std::map<Vec, size_t> distinct;
  std::vector<Vec> weights;
  for (const Served& s : served) {
    if (distinct.emplace(*s.weights, weights.size()).second) {
      weights.push_back(*s.weights);
    }
  }
  const std::vector<std::vector<double>> truth =
      ScanTopKScores(data, engine->scoring(), weights, k, bopts.threads);
  std::vector<bool> wrong(served.size(), false);
  for (size_t i = 0; i < served.size(); ++i) {
    wrong[i] = !MatchesTopK(data, engine->scoring(), *served[i].weights,
                            served[i].topk,
                            truth[distinct.at(*served[i].weights)]);
  }
  // ... and an evenly spaced sample bitwise against a direct ComputeGir
  // (read-only engine: every reply ran on epoch 0).
  const size_t samples = static_cast<size_t>(flags.Int("direct_samples"));
  for (size_t s = 0; s < samples && !served.empty(); ++s) {
    const size_t i = s * served.size() / samples;
    Result<GirComputation> direct =
        engine->ComputeGir(*served[i].weights, k, Phase2Method::kFP);
    if (!direct.ok() || direct->topk.result != served[i].topk) wrong[i] = true;
  }
  for (bool w : wrong) raw.mismatches += w ? 1 : 0;

  raw.queries = static_cast<int64_t>(served.size());
  raw.ops = raw.queries;
  raw.attempted = raw.queries + shed + errors;
  raw.failed = shed + errors + raw.mismatches;
  raw.info["shed"] = static_cast<double>(shed);
  raw.info["distinct_weights"] = static_cast<double>(weights.size());
  raw.info["slices"] = static_cast<double>(next - warmup);
  raw.info["check_s"] = check_sw.ElapsedSeconds();
  return raw;
}

}  // namespace perfbench
