// Perf-trajectory smoke bench: a fixed-seed IND/ANTI workload
// (n=100k, d in {2,4,6}, k=20, all four Phase-2 methods) plus batch-QPS
// and kernel microbenchmarks, emitted as machine-readable JSON
// (BENCH_PR2.json) so every PR has a baseline to beat. No pass/fail
// gating here — this captures numbers; CI uploads the file as an
// artifact.
//
//   ./bench_perf_smoke [--n 100000] [--k 20] [--queries N] [--seed S]
//                      [--out BENCH_PR2.json] [--full]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gir/batch_engine.h"
#include "skyline/dominance.h"
#include "skyline/skyline.h"
#include "topk/tree_kernels.h"

using namespace gir;
using namespace gir::bench;

namespace {

struct Cell {
  std::string dist;
  int64_t d = 0;
  std::string method;
  bool skipped = false;
  int queries = 0;
  double topk_cpu_ms = 0.0;
  double phase1_cpu_ms = 0.0;
  double phase2_cpu_ms = 0.0;
  double intersect_cpu_ms = 0.0;
  double topk_reads = 0.0;
  double phase2_reads = 0.0;
  double candidates = 0.0;
};

struct BatchCell {
  std::string dist;
  int64_t d = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
};

// Mean per-phase cost of `method` over the same query sequence every
// method gets (fresh Rng per method).
Cell MeasureCell(const GirEngine& engine, const std::string& dist, int64_t d,
                 Phase2Method method, int64_t k, int queries, int64_t seed) {
  Cell cell;
  cell.dist = dist;
  cell.d = d;
  cell.method = Phase2MethodName(method);
  Rng rng(seed * 17 + d);
  int done = 0;
  for (int q = 0; q < queries; ++q) {
    Vec w = RandomQuery(rng, d);
    Result<GirComputation> gir = engine.ComputeGir(w, k, method);
    if (!gir.ok()) continue;
    cell.topk_cpu_ms += gir->stats.topk_cpu_ms;
    cell.phase1_cpu_ms += gir->stats.phase1_cpu_ms;
    cell.phase2_cpu_ms += gir->stats.phase2_cpu_ms;
    cell.intersect_cpu_ms += gir->stats.intersect_cpu_ms;
    cell.topk_reads += static_cast<double>(gir->stats.topk_reads);
    cell.phase2_reads += static_cast<double>(gir->stats.phase2_reads);
    cell.candidates += static_cast<double>(gir->stats.candidates);
    ++done;
  }
  if (done > 0) {
    cell.topk_cpu_ms /= done;
    cell.phase1_cpu_ms /= done;
    cell.phase2_cpu_ms /= done;
    cell.intersect_cpu_ms /= done;
    cell.topk_reads /= done;
    cell.phase2_reads /= done;
    cell.candidates /= done;
  }
  cell.queries = done;
  return cell;
}

// --- kernel microbenchmarks (scalar pre-flat path vs SoA kernels) ---

struct MicroResult {
  double node_score_scalar_ns = 0.0;  // per entry
  double node_score_flat_ns = 0.0;
  double dominance_scalar_ns = 0.0;  // per member comparison
  double dominance_packed_ns = 0.0;
};

MicroResult RunMicro(int64_t seed) {
  MicroResult out;
  Rng rng(seed + 101);
  Dataset data = GenerateIndependent(50000, 4, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  LinearScoring scoring(4);
  Vec w = RandomQuery(rng, 4);

  // Entry scoring: sweep every node of the tree, both layouts.
  size_t entries = 0;
  for (size_t p = 0; p < tree.node_count(); ++p) {
    entries += tree.PeekNode(static_cast<PageId>(p)).entries.size();
  }
  const int reps = 40;
  ScoreBuffer buf;
  double sink = 0.0;
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    for (size_t p = 0; p < tree.node_count(); ++p) {
      AosEntryScores(scoring, data, tree.PeekNode(static_cast<PageId>(p)), w,
                     &buf);
      sink += buf.scores[0];
    }
  }
  out.node_score_scalar_ns =
      sw.ElapsedMillis() * 1e6 / (static_cast<double>(entries) * reps);
  sw.Restart();
  for (int r = 0; r < reps; ++r) {
    for (size_t p = 0; p < flat.node_count(); ++p) {
      ComputeEntryScores(scoring, data, flat.PeekNode(static_cast<PageId>(p)),
                         w, &buf);
      sink += buf.scores[0];
    }
  }
  out.node_score_flat_ns =
      sw.ElapsedMillis() * 1e6 / (static_cast<double>(entries) * reps);

  // k-dominance: incremental skyline over an anti-correlated sample —
  // the scalar reference chases dataset rows by id (the pre-PR
  // SkylineSet), the packed path streams the member block.
  Rng rng2(seed + 202);
  Dataset anti = GenerateAnticorrelated(4000, 4, rng2);
  std::vector<RecordId> ids(anti.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<RecordId>(i);
  uint64_t comparisons = 0;
  sw.Restart();
  {
    // Scalar reference: the pre-packing implementation.
    std::vector<RecordId> members;
    for (RecordId id : ids) {
      VecView p = anti.Get(id);
      bool dominated = false;
      for (RecordId m : members) {
        ++comparisons;
        if (Dominates(anti.Get(m), p)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      size_t kept = 0;
      for (size_t i = 0; i < members.size(); ++i) {
        ++comparisons;
        if (!Dominates(p, anti.Get(members[i]))) members[kept++] = members[i];
      }
      members.resize(kept);
      members.push_back(id);
    }
    sink += static_cast<double>(members.size());
  }
  out.dominance_scalar_ns =
      sw.ElapsedMillis() * 1e6 / static_cast<double>(comparisons);
  sw.Restart();
  {
    SkylineSet sky(&anti);
    for (RecordId id : ids) sky.Insert(id);
    sink += static_cast<double>(sky.size());
  }
  // Same insert order => same comparison count.
  out.dominance_packed_ns =
      sw.ElapsedMillis() * 1e6 / static_cast<double>(comparisons);
  if (sink == -1.0) std::printf("unreachable\n");  // keep `sink` alive
  return out;
}

void JsonCell(FILE* f, const Cell& c, bool last) {
  std::fprintf(
      f,
      "    {\"dist\": \"%s\", \"d\": %lld, \"method\": \"%s\", "
      "\"skipped\": %s, \"queries\": %d, \"topk_cpu_ms\": %.4f, "
      "\"phase1_cpu_ms\": %.4f, \"phase2_cpu_ms\": %.4f, "
      "\"intersect_cpu_ms\": %.4f, \"topk_reads\": %.1f, "
      "\"phase2_reads\": %.1f, \"candidates\": %.1f}%s\n",
      c.dist.c_str(), static_cast<long long>(c.d), c.method.c_str(),
      c.skipped ? "true" : "false", c.queries, c.topk_cpu_ms, c.phase1_cpu_ms,
      c.phase2_cpu_ms, c.intersect_cpu_ms, c.topk_reads, c.phase2_reads,
      c.candidates, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  params.queries = 3;
  std::string out_path = "BENCH_PR2.json";
  FlagSet flags;
  params.Register(&flags);
  flags.AddString("out", &out_path, "output JSON path");
  Status s = flags.Parse(argc, argv);
  if (!s.ok()) return s.code() == StatusCode::kNotFound ? 0 : 1;
  if (params.full) params.queries = 10;

  const std::vector<std::string> dists = {"IND", "ANTI"};
  const std::vector<int64_t> dims = {2, 4, 6};
  const std::vector<Phase2Method> methods = {
      Phase2Method::kSP, Phase2Method::kCP, Phase2Method::kFP,
      Phase2Method::kBruteForce};

  std::vector<Cell> cells;
  std::vector<BatchCell> batches;
  for (const std::string& dist : dists) {
    for (int64_t d : dims) {
      Dataset data = MakeNamedDataset(dist, params.n, d, params.seed + d);
      DiskManager disk;
      auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", d)));
      // BF would intersect ~n half-spaces; the paper charges it as a
      // straw man without that final step, so skip materialization.
      GirEngineOptions bf_opt;
      bf_opt.materialize_polytope = false;
      DiskManager bf_disk;
      auto bf_engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &bf_disk, MakeScoring("Linear", d), bf_opt));
      for (Phase2Method m : methods) {
        const bool bf = m == Phase2Method::kBruteForce;
        // CP's hull over the huge d>=6 ANTI skyline is the paper's known
        // pathology; keep the smoke run bounded (recorded as skipped,
        // not silently dropped). --full measures it.
        if (!params.full && dist == "ANTI" && d >= 6 &&
            (m == Phase2Method::kCP || bf)) {
          Cell cell;
          cell.dist = dist;
          cell.d = d;
          cell.method = Phase2MethodName(m);
          cell.skipped = true;
          cells.push_back(cell);
          continue;
        }
        cells.push_back(MeasureCell(bf ? *bf_engine : *engine, dist, d, m,
                                    params.k, static_cast<int>(params.queries),
                                    params.seed));
        std::printf("%-5s d=%lld %-3s gir_cpu=%8.3f ms  reads=%7.1f%s\n",
                    dist.c_str(), static_cast<long long>(d),
                    cells.back().method.c_str(),
                    cells.back().phase1_cpu_ms + cells.back().phase2_cpu_ms +
                        cells.back().intersect_cpu_ms,
                    cells.back().phase2_reads,
                    cells.back().skipped ? " (skipped)" : "");
      }
      // Batch serving throughput (FP), repeated queries warm the cache.
      BatchEngine batch(engine.get());
      Rng brng(params.seed * 31 + d);
      std::vector<Vec> ws;
      for (int i = 0; i < 4 * static_cast<int>(params.queries); ++i) {
        ws.push_back(RandomQuery(brng, d));
      }
      Result<BatchResult> br =
          batch.ComputeBatch(ws, params.k, Phase2Method::kFP);
      if (br.ok()) {
        BatchCell bc;
        bc.dist = dist;
        bc.d = d;
        bc.qps = br->stats.QueriesPerSecond();
        bc.p50_ms = br->stats.p50_ms;
        bc.p99_ms = br->stats.p99_ms;
        bc.hit_rate = br->stats.HitRate();
        batches.push_back(bc);
      }
    }
  }

  std::printf("running kernel microbenchmarks...\n");
  MicroResult micro = RunMicro(params.seed);
  const double score_speedup =
      micro.node_score_flat_ns > 0.0
          ? micro.node_score_scalar_ns / micro.node_score_flat_ns
          : 0.0;
  const double dom_speedup =
      micro.dominance_packed_ns > 0.0
          ? micro.dominance_scalar_ns / micro.dominance_packed_ns
          : 0.0;
  std::printf("node scoring: scalar %.2f ns/entry, flat %.2f ns/entry "
              "(%.2fx)\n",
              micro.node_score_scalar_ns, micro.node_score_flat_ns,
              score_speedup);
  std::printf("dominance:    scalar %.2f ns/cmp,   packed %.2f ns/cmp "
              "(%.2fx)\n",
              micro.dominance_scalar_ns, micro.dominance_packed_ns,
              dom_speedup);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_perf_smoke\",\n");
  std::fprintf(f,
               "  \"params\": {\"n\": %lld, \"k\": %lld, \"queries\": %lld, "
               "\"seed\": %lld, \"full\": %s},\n",
               static_cast<long long>(params.n),
               static_cast<long long>(params.k),
               static_cast<long long>(params.queries),
               static_cast<long long>(params.seed),
               params.full ? "true" : "false");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    JsonCell(f, cells[i], i + 1 == cells.size());
  }
  std::fprintf(f, "  ],\n  \"batch\": [\n");
  for (size_t i = 0; i < batches.size(); ++i) {
    std::fprintf(f,
                 "    {\"dist\": \"%s\", \"d\": %lld, \"method\": \"FP\", "
                 "\"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"hit_rate\": %.3f}%s\n",
                 batches[i].dist.c_str(), static_cast<long long>(batches[i].d),
                 batches[i].qps, batches[i].p50_ms, batches[i].p99_ms,
                 batches[i].hit_rate, i + 1 == batches.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"micro\": {\n");
  std::fprintf(f, "    \"node_score_scalar_ns_per_entry\": %.3f,\n",
               micro.node_score_scalar_ns);
  std::fprintf(f, "    \"node_score_flat_ns_per_entry\": %.3f,\n",
               micro.node_score_flat_ns);
  std::fprintf(f, "    \"node_score_speedup\": %.3f,\n", score_speedup);
  std::fprintf(f, "    \"dominance_scalar_ns_per_cmp\": %.3f,\n",
               micro.dominance_scalar_ns);
  std::fprintf(f, "    \"dominance_packed_ns_per_cmp\": %.3f,\n",
               micro.dominance_packed_ns);
  std::fprintf(f, "    \"dominance_speedup\": %.3f\n", dom_speedup);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
