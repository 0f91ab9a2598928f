// Shared plumbing of the perfbench workloads: flag parsing, the span
// recorder behind the traced run, process resource probes, the raw
// result every workload fills in, and the top-k correctness oracle.
//
// The binary prints one raw JSON object (samples, counts, timings);
// perfbench/run.py turns it into the metrics BENCHMARK.json names.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataset/dataset.h"
#include "gir/gir_region.h"
#include "topk/brs.h"
#include "topk/scoring.h"

namespace perfbench {

using gir::RecordId;
using gir::Vec;

// --key=value flags. Every workload parameter arrives this way from
// run.py (which reads them from perfbench/workloads.json), so the
// program holds no workload constant of its own.
class Flags {
 public:
  Flags(int argc, char** argv);
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  std::string Str(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  double Num(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

// Prints the message and exits non-zero: a failed set-up step means the
// run measured nothing, so it prints no result.
[[noreturn]] void Fail(const std::string& message);

// The workload's dataset (--dataset, --n, --dim), generated from --seed.
gir::Dataset MakeDataset(const Flags& flags);

// One finished span, in microseconds since the recorder started.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share it
  int track = 0;         // Chrome "tid"; distinct clocks use pid 2
  bool virtual_clock = false;
  std::vector<std::pair<std::string, double>> args;
};

// In-memory span store for the traced run, written once at exit as
// Chrome trace-event JSON. Disabled, every call is a cheap no-op so the
// timed runs carry no tracing work.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  void Record(Span span);
  bool WriteChromeJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Process CPU time (user + sys) in seconds.
double ProcessCpuSeconds();
// Process peak resident set size in KiB.
int64_t PeakRssKb();

// What a workload run measured. Serialized verbatim for run.py.
struct RawResult {
  int64_t attempted = 0;   // operations sent (queries + writes)
  int64_t failed = 0;      // shed, errored or failed a check
  int64_t mismatches = 0;  // of failed: wrong answers
  std::vector<double> setup_s;   // one entry per repeated set-up
  std::vector<double> query_ms;  // per completed query
  std::vector<double> ack_ms;    // per acknowledged write batch
  double recover_s = 0.0;       // timed reopen replaying the WAL tail
  double query_phase_s = 0.0;  // real time the queries were measured over
  int64_t queries = 0;         // completed queries in that phase
  double cpu_s = 0.0;          // process CPU over the measured phase
  int64_t ops = 0;             // completed operations in that phase
  // Peak RSS over set-up and the measured phase, taken when the phase
  // ends: later recovery and checking work is the benchmark's, not the
  // serving process's.
  int64_t peak_rss_kb = 0;
  std::map<std::string, double> info;  // context printed beside metrics
};

std::string ToJson(const RawResult& r);

// Runs body(i) for i in [0, n) on up to `threads` threads.
void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& body);

// Top-k oracle: the k best live records of `data` for each weight
// vector, by a plain scan with the scalar ScoringFunction::Score.
// Returns the scores (descending) of each query's true top-k; runs on
// up to `threads` threads.
std::vector<std::vector<double>> ScanTopKScores(
    const gir::Dataset& data, const gir::ScoringFunction& scoring,
    const std::vector<Vec>& weights, size_t k, size_t threads);

// True when `answer` is a correct top-k for `weights`: k distinct live
// ids whose scores, in answer order, match the oracle's descending
// scores (ties may swap ids, never scores).
bool MatchesTopK(const gir::Dataset& data, const gir::ScoringFunction& scoring,
                 const Vec& weights, const std::vector<RecordId>& answer,
                 const std::vector<double>& truth);

// Test hook (--inject_wrong_answer=1): replaces the last id of the
// answer with another record, so the check above must reject it.
void CorruptAnswer(const gir::Dataset& data, std::vector<RecordId>* answer);

// Bitwise equality of two GIR answers: same top-k ids and scores, and
// the same constraint system (normals and provenance, in order).
bool SameGir(const gir::TopKResult& a_topk, const gir::GirRegion& a_region,
             const gir::TopKResult& b_topk, const gir::GirRegion& b_region);

// Uniform weights bounded away from zero, like the paper's queries.
Vec RandomWeights(gir::Rng& rng, size_t dim);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
