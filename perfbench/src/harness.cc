#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <thread>

#include "dataset/generators.h"

namespace perfbench {

namespace {

void AppendNumber(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

void AppendArray(std::ostringstream& out, const std::vector<double>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out << ',';
    AppendNumber(out, values[i]);
  }
  out << ']';
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Fail("expected --key=value, got " + arg);
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Flags::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) Fail("missing flag --" + key);
  return it->second;
}

int64_t Flags::Int(const std::string& key) const {
  const std::string s = Str(key);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') Fail("--" + key + " is not an integer");
  return v;
}

double Flags::Num(const std::string& key) const {
  const std::string s = Str(key);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
    Fail("--" + key + " is not a number");
  }
  return v;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

gir::Dataset MakeDataset(const Flags& flags) {
  gir::Rng rng(static_cast<uint64_t>(
      flags.Has("data_seed") ? flags.Int("data_seed") : flags.Int("seed")));
  gir::Result<gir::Dataset> data = gir::GenerateByName(
      flags.Str("dataset"), static_cast<size_t>(flags.Int("n")),
      static_cast<size_t>(flags.Int("dim")), rng);
  if (!data.ok()) Fail(data.status().ToString());
  return std::move(data).value();
}

void Tracer::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i != 0) out << ",\n";
      out << "{\"name\":\"" << Escape(s.name) << "\",\"cat\":\""
          << Escape(s.name.substr(0, s.name.find('.'))) << "\",\"ph\":\"X\","
          << "\"pid\":" << (s.virtual_clock ? 2 : 1) << ",\"tid\":" << s.track
          << ",\"ts\":";
      AppendNumber(out, s.start_us);
      out << ",\"dur\":";
      AppendNumber(out, std::max(0.0, s.end_us - s.start_us));
      out << ",\"args\":{\"span_id\":" << s.id << ",\"parent_id\":" << s.parent
          << ",\"request_id\":" << s.request;
      for (const auto& [key, value] : s.args) {
        out << ",\"" << Escape(key) << "\":";
        AppendNumber(out, value);
      }
      out << "}}";
    }
  }
  out << "]}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = out.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss);
}

std::string ToJson(const RawResult& r) {
  std::ostringstream out;
  out << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"mismatches\":" << r.mismatches << ",\"setup_s\":";
  AppendArray(out, r.setup_s);
  out << ",\"query_ms\":";
  AppendArray(out, r.query_ms);
  out << ",\"ack_ms\":";
  AppendArray(out, r.ack_ms);
  out << ",\"recover_s\":";
  AppendNumber(out, r.recover_s);
  out << ",\"query_phase_s\":";
  AppendNumber(out, r.query_phase_s);
  out << ",\"queries\":" << r.queries << ",\"cpu_s\":";
  AppendNumber(out, r.cpu_s);
  out << ",\"ops\":" << r.ops << ",\"peak_rss_kb\":" << r.peak_rss_kb
      << ",\"info\":{";
  bool first = true;
  for (const auto& [key, value] : r.info) {
    if (!first) out << ',';
    first = false;
    out << '"' << Escape(key) << "\":";
    AppendNumber(out, value);
  }
  out << "}}";
  return out.str();
}

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) t.join();
}

std::vector<std::vector<double>> ScanTopKScores(
    const gir::Dataset& data, const gir::ScoringFunction& scoring,
    const std::vector<Vec>& weights, size_t k, size_t threads) {
  const size_t n = data.size();
  const size_t dim = data.dim();
  // g_j over every record once, column-major, so each query is a plain
  // dot-product sweep.
  std::vector<std::vector<double>> columns(dim, std::vector<double>(n));
  for (size_t j = 0; j < dim; ++j) {
    scoring.TransformDimBatch(j, data.Column(j), n, columns[j].data());
  }
  // Each block of queries sweeps the columns once, in cache-sized row
  // chunks scored for every query of the block; a record only touches a
  // query's heap when it beats that query's current k-th score.
  constexpr size_t kBlock = 16;
  std::vector<std::vector<double>> truth(weights.size());
  const size_t blocks = (weights.size() + kBlock - 1) / kBlock;
  ParallelFor(blocks, threads, [&](size_t b) {
    const size_t q0 = b * kBlock;
    const size_t m = std::min(kBlock, weights.size() - q0);
    using MinHeap =
        std::priority_queue<double, std::vector<double>, std::greater<double>>;
    std::vector<MinHeap> best(m);
    std::vector<double> floor(m, -std::numeric_limits<double>::infinity());
    constexpr size_t kRows = 512;
    double scores[kRows];
    for (size_t r0 = 0; r0 < n; r0 += kRows) {
      const size_t rows = std::min(kRows, n - r0);
      for (size_t q = 0; q < m; ++q) {
        const Vec& w = weights[q0 + q];
        for (size_t r = 0; r < rows; ++r) scores[r] = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double wj = w[j];
          const double* col = columns[j].data() + r0;
          for (size_t r = 0; r < rows; ++r) scores[r] += wj * col[r];
        }
        for (size_t r = 0; r < rows; ++r) {
          if (scores[r] <= floor[q] ||
              !data.IsLive(static_cast<RecordId>(r0 + r))) {
            continue;
          }
          best[q].push(scores[r]);
          if (best[q].size() > k) best[q].pop();
          if (best[q].size() == k) floor[q] = best[q].top();
        }
      }
    }
    for (size_t q = 0; q < m; ++q) {
      std::vector<double>& out = truth[q0 + q];
      out.resize(best[q].size());
      for (size_t r = best[q].size(); r-- > 0;) {
        out[r] = best[q].top();
        best[q].pop();
      }
    }
  });
  return truth;
}

bool MatchesTopK(const gir::Dataset& data, const gir::ScoringFunction& scoring,
                 const Vec& weights, const std::vector<RecordId>& answer,
                 const std::vector<double>& truth) {
  if (answer.size() != truth.size()) return false;
  std::vector<RecordId> seen = answer;
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) return false;
  for (size_t r = 0; r < answer.size(); ++r) {
    const RecordId id = answer[r];
    if (id < 0 || static_cast<size_t>(id) >= data.size() || !data.IsLive(id)) {
      return false;
    }
    const double score = scoring.Score(data.Get(id), weights);
    if (std::fabs(score - truth[r]) > 1e-9) return false;
  }
  return true;
}

void CorruptAnswer(const gir::Dataset& data, std::vector<RecordId>* answer) {
  if (answer->empty()) return;
  RecordId id = answer->back();
  do {
    id = static_cast<RecordId>((static_cast<size_t>(id) + 7919) % data.size());
  } while (std::find(answer->begin(), answer->end(), id) != answer->end() ||
           !data.IsLive(id));
  answer->back() = id;
}

bool SameGir(const gir::TopKResult& a_topk, const gir::GirRegion& a_region,
             const gir::TopKResult& b_topk, const gir::GirRegion& b_region) {
  if (a_topk.result != b_topk.result || a_topk.scores != b_topk.scores) {
    return false;
  }
  const auto& a = a_region.constraints();
  const auto& b = b_region.constraints();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].normal != b[i].normal ||
        a[i].provenance.kind != b[i].provenance.kind ||
        a[i].provenance.position != b[i].provenance.position ||
        a[i].provenance.challenger != b[i].provenance.challenger) {
      return false;
    }
  }
  return true;
}

Vec RandomWeights(gir::Rng& rng, size_t dim) {
  Vec w(dim);
  for (size_t j = 0; j < dim; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

}  // namespace perfbench
