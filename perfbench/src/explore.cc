// explore_anti_d5: the paper's own cost centre. Closed-loop analysts
// call ComputeGir directly, so no cache, admission, refreeze or WAL
// work is on the path; FP's Phase 2 is nearly all of each query.
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "gir/engine.h"
#include "gir/fpnd.h"
#include "gir/phase1.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gir;

struct Answer {
  Vec weights;
  std::vector<RecordId> topk;
  // Traced run: the decomposed computation, compared bitwise against
  // ComputeGir after the measured phase.
  std::optional<TopKResult> traced_topk;
  std::optional<GirRegion> traced_region;
};

// The traced query: ComputeGir split into its public calls, each one a
// child span of the query span.
Status TracedQuery(const GirEngine& engine, size_t k, Tracer* tracer,
                   int track, Answer* answer) {
  const Vec& weights = answer->weights;
  const uint64_t root = tracer->NewId();
  const double root_start = tracer->NowUs();
  const auto child = [&](const char* name, double start,
                         std::vector<std::pair<std::string, double>> args) {
    Span s;
    s.name = name;
    s.start_us = start;
    s.end_us = tracer->NowUs();
    s.id = tracer->NewId();
    s.parent = root;
    s.request = root;
    s.track = track;
    s.args = std::move(args);
    tracer->Record(std::move(s));
  };

  double t = tracer->NowUs();
  const GirEngine::PinnedIndex pin = engine.PinIndex();
  child("gir.pin_index", t, {});

  t = tracer->NowUs();
  Result<TopKResult> topk = RunBrs(*pin.flat, engine.scoring(), weights, k);
  if (!topk.ok()) return topk.status();
  child("topk.brs", t, {{"reads", static_cast<double>(topk->io.reads)}});

  const Dataset& data = pin.flat->dataset();
  GirRegion region(data.dim(), weights, topk->result);
  t = tracer->NowUs();
  AddPhase1Constraints(data, engine.scoring(), topk->result, &region);
  child("gir.phase1", t, {});

  t = tracer->NowUs();
  Result<Phase2Output> p2 =
      RunFpNdPhase2(*pin.flat, engine.scoring(), weights, *topk, &region);
  if (!p2.ok()) return p2.status();
  child("gir.phase2",
        t, {{"reads", static_cast<double>(p2->io.reads)},
            {"candidates", static_cast<double>(p2->candidates)},
            {"star_facets", static_cast<double>(p2->star_facets)},
            {"constraints", static_cast<double>(region.constraints().size())}});

  t = tracer->NowUs();
  region.polytope();
  child("geom.intersect", t, {});

  Span query;
  query.name = "gir.query";
  query.start_us = root_start;
  query.end_us = tracer->NowUs();
  query.id = root;
  query.request = root;
  query.track = track;
  tracer->Record(std::move(query));

  answer->topk = topk->result;
  answer->traced_topk = std::move(topk).value();
  answer->traced_region = std::move(region);
  return Status::Ok();
}

// Thread-safe source of distinct query weights w_j in [0.05, 1): point
// i is 0.05 + 0.95 * frac(shift_j + i * alpha_j), with alpha_j = sqrt of
// the j-th prime (an additive recurrence, i.e. a Kronecker sequence)
// and shift_j drawn from the seed.
class ShiftedKronecker {
 public:
  ShiftedKronecker(size_t dim, uint64_t seed) {
    static const double kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19};
    if (dim > sizeof(kPrimes) / sizeof(kPrimes[0])) Fail("dim > 8");
    Rng rng(seed * 1000003ULL + 1);
    for (size_t j = 0; j < dim; ++j) {
      const double root = std::sqrt(kPrimes[j]);
      alpha_.push_back(root - std::floor(root));
      shift_.push_back(rng.Uniform());
    }
  }

  Vec Next() {
    const double i = static_cast<double>(next_.fetch_add(1));
    Vec w(alpha_.size());
    for (size_t j = 0; j < w.size(); ++j) {
      const double x = shift_[j] + i * alpha_[j];
      w[j] = 0.05 + 0.95 * (x - std::floor(x));
    }
    return w;
  }

 private:
  std::vector<double> alpha_;
  std::vector<double> shift_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace

RawResult RunExplore(const Flags& flags, Tracer* tracer) {
  const size_t dim = static_cast<size_t>(flags.Int("dim"));
  const size_t k = static_cast<size_t>(flags.Int("k"));
  const int clients = static_cast<int>(flags.Int("clients"));
  const int setups = static_cast<int>(flags.Int("setup_repeats"));
  const double seconds = flags.Num("seconds");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));

  const Dataset data = MakeDataset(flags);

  RawResult raw;
  // Open alone is ~0.15 s here, too short to repeat within a tenth, so
  // it is repeated and run.py reports the median.
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<GirEngine> engine;
  for (int i = 0; i < setups; ++i) {
    engine.reset();
    disk = std::make_unique<DiskManager>();
    Stopwatch sw;
    engine = OpenEngineOrDie(EngineConfig::FromDataset(
        &data, disk.get(), MakeScoring("Linear", dim)));
    raw.setup_s.push_back(sw.ElapsedSeconds());
  }

  // Analysts' weights: a randomly shifted low-discrepancy sequence, so
  // every seed covers weight space evenly and the run's mean query cost
  // does not hinge on which corners a few random draws happened to hit.
  ShiftedKronecker weights(dim, seed);
  std::vector<std::vector<Answer>> answers(clients);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<int64_t> errors(clients, 0);
  const double cpu0 = ProcessCpuSeconds();
  Stopwatch phase;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (phase.ElapsedSeconds() < seconds) {
        Answer a;
        a.weights = weights.Next();
        Stopwatch sw;
        Status st = Status::Ok();
        if (tracer->enabled()) {
          st = TracedQuery(*engine, k, tracer, c, &a);
        } else {
          Result<GirComputation> gir =
              engine->ComputeGir(a.weights, k, Phase2Method::kFP);
          if (gir.ok()) {
            a.topk = std::move(gir->topk.result);
          } else {
            st = gir.status();
          }
        }
        const double ms = sw.ElapsedMillis();
        if (!st.ok()) {
          ++errors[c];
          continue;
        }
        latencies[c].push_back(ms);
        answers[c].push_back(std::move(a));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  raw.query_phase_s = phase.ElapsedSeconds();
  raw.cpu_s = ProcessCpuSeconds() - cpu0;
  raw.peak_rss_kb = PeakRssKb();

  // ----- checks, outside the timed region -----
  Stopwatch check_sw;
  std::vector<Answer> all;
  int64_t error_count = 0;
  for (int c = 0; c < clients; ++c) {
    raw.query_ms.insert(raw.query_ms.end(), latencies[c].begin(),
                        latencies[c].end());
    error_count += errors[c];
    for (Answer& a : answers[c]) all.push_back(std::move(a));
  }
  if (flags.Has("inject_wrong_answer") && !all.empty()) {
    CorruptAnswer(data, &all.front().topk);
  }
  std::vector<Vec> asked;
  for (const Answer& a : all) asked.push_back(a.weights);
  const std::vector<std::vector<double>> truth =
      ScanTopKScores(data, engine->scoring(), asked, k, clients);
  std::vector<uint8_t> wrong(all.size(), 0);
  ParallelFor(all.size(), clients, [&](size_t i) {
    bool same_as_engine = true;
    if (all[i].traced_topk.has_value()) {
      Result<GirComputation> reference =
          engine->ComputeGir(all[i].weights, k, Phase2Method::kFP);
      same_as_engine =
          reference.ok() && SameGir(*all[i].traced_topk, *all[i].traced_region,
                                    reference->topk, reference->region);
    }
    wrong[i] = !same_as_engine ||
               !MatchesTopK(data, engine->scoring(), all[i].weights,
                            all[i].topk, truth[i]);
  });
  for (uint8_t w : wrong) raw.mismatches += w;
  raw.queries = static_cast<int64_t>(all.size());
  raw.ops = raw.queries;
  raw.attempted = raw.queries + error_count;
  raw.failed = error_count + raw.mismatches;
  raw.info["check_s"] = check_sw.ElapsedSeconds();
  return raw;
}

}  // namespace perfbench
