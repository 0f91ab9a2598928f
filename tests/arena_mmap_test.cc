// Real-I/O storage contract of the mmap'd arena engine: an engine
// opened straight from an arena file answers bit-identically to the
// heap-frozen engine it was published from — ids, scores, constraint
// normals and charged IoStats — across every data distribution, scoring
// function and forced SIMD tier; damaged arena files (torn tail,
// flipped byte) are rejected at open by checksum and skipped by
// directory recovery; epoch advance on a follower is one validated
// pointer swap; and the frontier prefetcher's counters fire only on the
// mapped image under shared traversal. A checksummed arena whose
// contents are semantically out of range is refused as DataLoss.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/generators.h"
#include "gir/approx.h"
#include "gir/batch_engine.h"
#include "gir/engine.h"
#include "index/flat_rtree.h"
#include "storage/arena_file.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"
#include "storage/snapshot_store.h"
#include "topk/scoring.h"

namespace gir {
namespace {

constexpr uint64_t kDataSeed = 808;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset MakeDist(const std::string& dist, size_t n, size_t d,
                 uint64_t seed) {
  Rng rng(seed);
  if (dist == "COR") return GenerateCorrelated(n, d, rng);
  if (dist == "ANTI") return GenerateAnticorrelated(n, d, rng);
  return GenerateIndependent(n, d, rng);
}

Vec MakeQuery(Rng& rng, size_t d) {
  Vec w(d);
  for (size_t j = 0; j < d; ++j) w[j] = rng.Uniform(0.05, 1.0);
  return w;
}

std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  const int detected = static_cast<int>(simd::DetectedTier());
  if (detected >= static_cast<int>(simd::Tier::kSse2)) {
    tiers.push_back(simd::Tier::kSse2);
  }
  if (detected >= static_cast<int>(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Restores the startup dispatch tier when a test scope ends, so a
// failing assertion can't leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

// Bit-for-bit equality of two complete computations: result order,
// scores, every constraint normal, and the charged I/O.
void ExpectSameComputation(const GirComputation& a, const GirComputation& b,
                           const std::string& label) {
  ASSERT_EQ(a.topk.result, b.topk.result) << label;
  ASSERT_EQ(a.topk.scores, b.topk.scores) << label;
  EXPECT_EQ(a.topk.io.reads, b.topk.io.reads) << label;
  EXPECT_EQ(a.stats.topk_reads, b.stats.topk_reads) << label;
  EXPECT_EQ(a.stats.phase2_reads, b.stats.phase2_reads) << label;
  ASSERT_EQ(a.region.constraints().size(), b.region.constraints().size())
      << label;
  for (size_t c = 0; c < a.region.constraints().size(); ++c) {
    EXPECT_EQ(a.region.constraints()[c].normal,
              b.region.constraints()[c].normal)
        << label << " constraint " << c;
  }
}

// The tentpole property: Open(FromArena) serves the published epoch
// bit-identically to the heap engine, across IND/COR/ANTI ×
// Linear/Polynomial/Mixed × every SIMD tier this machine dispatches.
TEST(ArenaMmapTest, BitIdenticalToHeapEngineAcrossTiers) {
  TierGuard guard;
  const char* kDists[] = {"IND", "COR", "ANTI"};
  const char* kScorings[] = {"Linear", "Polynomial", "Mixed"};
  const size_t n = 260;
  const size_t d = 4;
  const size_t k = 10;

  for (const char* dist : kDists) {
    Dataset data = MakeDist(dist, n, d, kDataSeed);
    for (const char* scoring : kScorings) {
      DiskManager heap_disk;
      auto heap = OpenEngineOrDie(
          EngineConfig::FromDataset(&data, &heap_disk, MakeScoring(scoring, d)));

      const std::string dir =
          FreshDir(std::string("arena_bit_") + dist + "_" + scoring);
      SnapshotStore store(dir);
      auto wrote = store.WriteArena(heap->flat_tree(), 0);
      ASSERT_TRUE(wrote.ok()) << wrote.status().message();
      EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kNone);

      DiskManager mmap_disk;
      auto mapped = GirEngine::Open(
          EngineConfig::FromArena(dir, &mmap_disk, MakeScoring(scoring, d)));
      ASSERT_TRUE(mapped.ok()) << mapped.status().message();
      EXPECT_FALSE((*mapped)->has_master_tree());
      EXPECT_EQ((*mapped)->dataset_version(), 0u);
      EXPECT_EQ((*mapped)->dataset().size(), data.size());

      for (simd::Tier tier : AvailableTiers()) {
        simd::ForceTier(tier);
        Rng qrng(kDataSeed + 7);
        for (int q = 0; q < 4; ++q) {
          Vec w = MakeQuery(qrng, d);
          auto want = heap->ComputeGir(w, k, Phase2Method::kFP);
          auto got = (*mapped)->ComputeGir(w, k, Phase2Method::kFP);
          ASSERT_TRUE(want.ok()) << want.status().message();
          ASSERT_TRUE(got.ok()) << got.status().message();
          ExpectSameComputation(
              *want, *got,
              std::string(dist) + "/" + scoring + "/" +
                  simd::TierName(tier) + "/q" + std::to_string(q));
        }
      }
    }
  }
}

// A torn publish (truncated tail behind a durable rename) is rejected
// by ArenaFile::Open and skipped — with the damage counted — by
// RecoverLatestArena, which falls back to the newest intact epoch.
TEST(ArenaMmapTest, TornArenaIsRejectedAndRecoverySkipsIt) {
  Dataset data = MakeDist("IND", 200, 3, kDataSeed + 1);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_torn");

  SnapshotStore clean(dir);
  ASSERT_TRUE(clean.WriteArena(engine->flat_tree(), 1).ok());

  FaultPlan plan;
  plan.seed = 41;
  plan.torn_write_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteArena(engine->flat_tree(), 2);
  // The publish itself reports success — a crashed write does not
  // announce itself; detection belongs to open/recovery.
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kTorn);
  EXPECT_LT(std::filesystem::file_size(wrote->path), wrote->bytes);

  auto open = ArenaFile::Open(wrote->path);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kDataLoss);

  auto pick = clean.RecoverLatestArena();
  ASSERT_TRUE(pick.ok()) << pick.status().message();
  EXPECT_EQ(pick->version, 1u);
  EXPECT_EQ(pick->scanned, 2u);
  EXPECT_EQ(pick->rejected, 1u);

  // Open-from-directory lands on the surviving epoch.
  DiskManager disk2;
  auto mapped = GirEngine::Open(
      EngineConfig::FromArena(dir, &disk2, MakeScoring("Linear", 3)));
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  EXPECT_EQ((*mapped)->dataset_version(), 1u);
}

// One flipped payload byte leaves the file size intact — only the
// section CRC can tell — and is still rejected before any byte is
// served.
TEST(ArenaMmapTest, CorruptArenaIsRejectedByChecksum) {
  Dataset data = MakeDist("IND", 200, 3, kDataSeed + 2);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_corrupt");

  FaultPlan plan;
  plan.seed = 42;
  plan.corrupt_rate = 1.0;
  FaultInjector fi(plan);
  SnapshotStore faulty(dir, &fi);
  auto wrote = faulty.WriteArena(engine->flat_tree(), 3);
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(wrote->injected, FaultInjector::WriteFault::kCorrupt);
  EXPECT_EQ(std::filesystem::file_size(wrote->path), wrote->bytes);

  auto open = ArenaFile::Open(wrote->path);
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kDataLoss);

  // With every candidate damaged, recovery refuses rather than serving
  // bad bytes, and says how much it scanned.
  auto pick = faulty.RecoverLatestArena();
  ASSERT_FALSE(pick.ok());
  EXPECT_EQ(pick.status().code(), StatusCode::kNotFound);

  DiskManager disk2;
  auto mapped = GirEngine::Open(
      EngineConfig::FromArena(dir, &disk2, MakeScoring("Linear", 3)));
  ASSERT_FALSE(mapped.ok());
}

// The follower epoch-advance path: a leader mutates and publishes arena
// N+1; the follower AdvanceToArena's onto it with one validated pointer
// swap and then answers bit-identically to the mutated leader. Engines
// with a master tree refuse the call.
TEST(ArenaMmapTest, AdvanceToArenaSwapsEpochsInPlace) {
  Dataset data = MakeDist("IND", 240, 3, kDataSeed + 3);
  DiskManager leader_disk;
  auto leader = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &leader_disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_advance");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.WriteArena(leader->flat_tree(), 0).ok());

  DiskManager follower_disk;
  auto follower = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &follower_disk, MakeScoring("Linear", 3)));
  EXPECT_EQ(follower->dataset_version(), 0u);

  // Only arena engines advance; the leader keeps its own refreeze path.
  auto wrong = leader->AdvanceToArena(dir + "/" +
                                      SnapshotStore::ArenaFileName(0));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  UpdateBatch batch;
  batch.deletes = {5, 9};
  batch.inserts = {{0.31, 0.62, 0.18}};
  ASSERT_TRUE(leader->ApplyUpdates(batch).ok());
  ASSERT_EQ(leader->dataset_version(), 1u);
  ASSERT_TRUE(store.WriteArena(leader->flat_tree(), 1).ok());

  auto advanced = follower->AdvanceToArena(
      dir + "/" + SnapshotStore::ArenaFileName(1));
  ASSERT_TRUE(advanced.ok()) << advanced.status().message();
  EXPECT_EQ(*advanced, 1u);
  EXPECT_EQ(follower->dataset_version(), 1u);
  EXPECT_EQ(follower->dataset().live_size(), data.live_size());

  Rng qrng(kDataSeed + 11);
  for (int q = 0; q < 3; ++q) {
    Vec w = MakeQuery(qrng, 3);
    auto want = leader->ComputeGir(w, 8, Phase2Method::kFP);
    auto got = follower->ComputeGir(w, 8, Phase2Method::kFP);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameComputation(*want, *got, "post-advance q" + std::to_string(q));
    EXPECT_EQ(got->snapshot_version, 1u);
  }

  // Advancing onto a missing or damaged file leaves the served epoch
  // untouched.
  auto missing = follower->AdvanceToArena(dir + "/" +
                                          SnapshotStore::ArenaFileName(9));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(follower->dataset_version(), 1u);
}

// Frontier prefetch: shared traversal over the mapped image issues
// madvise readahead and accounts every unique first touch as a hit or a
// miss; turning ExecPolicy::prefetch off zeroes the issue counter; and
// the heap-resident image never counts anything. Results stay
// bit-identical throughout.
TEST(ArenaMmapTest, PrefetchCountersFireOnlyOnMappedImage) {
  Dataset data = MakeDist("IND", 400, 3, kDataSeed + 4);
  DiskManager heap_disk;
  auto heap = OpenEngineOrDie(EngineConfig::FromDataset(
      &data, &heap_disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_prefetch");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.WriteArena(heap->flat_tree(), 0).ok());
  DiskManager mmap_disk;
  auto mapped = OpenEngineOrDie(EngineConfig::FromArena(
      dir, &mmap_disk, MakeScoring("Linear", 3)));

  std::vector<Vec> weights;
  Rng qrng(kDataSeed + 13);
  for (int q = 0; q < 12; ++q) weights.push_back(MakeQuery(qrng, 3));

  BatchOptions opts;
  opts.threads = 1;
  opts.populate_cache = false;
  opts.exec.shared_traversal = true;
  opts.exec.group_width = 8;

  BatchEngine heap_batch(heap.get(), opts);
  BatchEngine mmap_batch(mapped.get(), opts);

  auto want = heap_batch.ComputeBatch(weights, 10, Phase2Method::kFP);
  auto got = mmap_batch.ComputeBatch(weights, 10, Phase2Method::kFP);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(want->items.size(), got->items.size());
  for (size_t i = 0; i < want->items.size(); ++i) {
    ASSERT_TRUE(want->items[i].status.ok());
    ASSERT_TRUE(got->items[i].status.ok());
    EXPECT_EQ(want->items[i].topk, got->items[i].topk) << "query " << i;
    EXPECT_EQ(want->items[i].reads, got->items[i].reads) << "query " << i;
  }

  // Heap image: the prefetcher has nothing to readahead into.
  EXPECT_EQ(want->stats.prefetch_issued, 0u);
  EXPECT_EQ(want->stats.prefetch_hits + want->stats.prefetch_misses, 0u);
  // Mapped image: readahead was issued and every unique physical fetch
  // was classified as resident-or-faulted.
  EXPECT_GT(got->stats.prefetch_issued, 0u);
  EXPECT_GT(got->stats.prefetch_hits + got->stats.prefetch_misses, 0u);

  ExecPolicy quiet = opts.exec;
  quiet.prefetch = false;
  auto off = mmap_batch.ComputeBatch(weights, 10, Phase2Method::kFP, quiet);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->stats.prefetch_issued, 0u);
  for (size_t i = 0; i < off->items.size(); ++i) {
    EXPECT_EQ(off->items[i].topk, got->items[i].topk) << "query " << i;
  }
}

// The arena file itself round-trips its geometry, and its resident-set
// controls (the larger-than-RAM bench's lever) behave: Evict drops
// residency, TouchNode faults a page back in and reports the prior
// state, PrefetchNodes is at worst advisory.
TEST(ArenaMmapTest, ArenaFileResidencyControls) {
  Dataset data = MakeDist("IND", 300, 3, kDataSeed + 5);
  DiskManager disk;
  auto engine = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_resident");
  SnapshotStore store(dir);
  auto wrote = store.WriteArena(engine->flat_tree(), 7);
  ASSERT_TRUE(wrote.ok());

  auto opened = ArenaFile::Open(wrote->path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const ArenaFile& arena = **opened;
  EXPECT_EQ(arena.version(), 7u);
  EXPECT_EQ(arena.dim(), 3u);
  EXPECT_EQ(arena.dataset_rows(), data.size());
  EXPECT_GT(arena.node_count(), 0u);
  EXPECT_GE(arena.root(), 0);
  EXPECT_EQ(arena.file_bytes() % kArenaAlign, 0u);

  arena.Evict();
  // A first touch after eviction must fault the page in; afterwards the
  // same node reports resident.
  const PageId root = static_cast<PageId>(arena.root());
  arena.TouchNode(root);
  EXPECT_TRUE(arena.TouchNode(root));
  EXPECT_GT(arena.ResidentBytes(), 0u);

  PageId pages[1] = {root};
  arena.PrefetchNodes(pages, 1);  // advisory; must not crash or throw
}

// Overwrites one int32 of the children section of an arena image and
// re-seals the section CRC and the header CRC, producing a file that
// ArenaFile::Open accepts: only FromArena's semantic checks can refuse
// it. Layout per arena_file.h: an 80-byte fixed header, then one
// 32-byte table entry per section (kind, pad, offset, length, crc,
// pad), then the header CRC.
void PatchChildAndReseal(std::vector<uint8_t>* image, size_t child_index,
                         int32_t value) {
  constexpr size_t kTable = 80;
  constexpr size_t kEntry = 32;
  uint8_t* h = image->data();
  for (size_t s = 0; s < kArenaSectionCount; ++s) {
    uint8_t* entry = h + kTable + s * kEntry;
    uint32_t kind = 0;
    std::memcpy(&kind, entry, sizeof(kind));
    if (kind != static_cast<uint32_t>(ArenaSection::kChildren)) continue;
    uint64_t offset = 0;
    uint64_t length = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    std::memcpy(h + offset + child_index * sizeof(int32_t), &value,
                sizeof(value));
    const uint32_t crc = Crc32(h + offset, length);
    std::memcpy(entry + 24, &crc, sizeof(crc));
  }
  const size_t header_crc_at = kTable + kArenaSectionCount * kEntry;
  const uint32_t header_crc = Crc32(h, header_crc_at);
  std::memcpy(h + header_crc_at, &header_crc, sizeof(header_crc));
}

// A leaf entry holds a record id, which scoring, RangeQuery and Thaw
// use to index the dataset. A valid CRC proves integrity, not
// semantics: FromArena must refuse a checksummed file whose leaf id
// points past the dataset, as it refuses out-of-range child pages.
TEST(ArenaMmapTest, LeafRecordIdOutOfRangeIsDataLoss) {
  Dataset data = MakeDist("IND", 300, 3, kDataSeed + 6);
  DiskManager disk;
  const FlatRTree flat = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  PageId leaf = kInvalidPage;
  for (size_t p = 0; p < flat.node_count() && leaf == kInvalidPage; ++p) {
    const FlatRTree::NodeView node = flat.PeekNode(static_cast<PageId>(p));
    if (node.is_leaf() && node.count() > 0) leaf = static_cast<PageId>(p);
  }
  ASSERT_NE(leaf, kInvalidPage);
  const size_t slot = static_cast<size_t>(leaf) * flat.Capacity();
  const std::string dir = FreshDir("arena_leaf_id");
  std::filesystem::create_directories(dir);

  auto open_flat = [&](int32_t leaf_id, const std::string& name) {
    std::vector<uint8_t> image = BuildArenaImage(flat, 1);
    PatchChildAndReseal(&image, slot, leaf_id);
    const std::string path = dir + "/" + name;
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    auto arena = ArenaFile::Open(path);
    EXPECT_TRUE(arena.ok()) << arena.status().message();
    auto rows = (*arena)->BuildDataset();
    EXPECT_TRUE(rows.ok()) << rows.status().message();
    DiskManager mapped_disk;
    return FlatRTree::FromArena(*arena, rows->get(), &mapped_disk).status();
  };
  // Control: re-sealing an in-range id yields a file FromArena serves.
  const int32_t last_id = static_cast<int32_t>(data.size()) - 1;
  EXPECT_TRUE(open_flat(last_id, "in_range.arena").ok());
  for (int32_t bad : {static_cast<int32_t>(data.size()), int32_t{-1}}) {
    Status st = open_flat(bad, "bad_" + std::to_string(bad) + ".arena");
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << "leaf id " << bad;
  }
}

// Approximate GIR traverses the frozen image, so it runs on an engine
// opened from an arena alone, with no master tree to fall back on, and
// agrees with the heap engine it was published from.
TEST(ArenaMmapTest, ApproxGirRunsOnMappedImage) {
  Dataset data = MakeDist("ANTI", 300, 3, kDataSeed + 8);
  DiskManager disk;
  auto heap = OpenEngineOrDie(
      EngineConfig::FromDataset(&data, &disk, MakeScoring("Linear", 3)));
  const std::string dir = FreshDir("arena_approx");
  SnapshotStore store(dir);
  ASSERT_TRUE(store.WriteArena(heap->flat_tree(), 0).ok());
  DiskManager mmap_disk;
  auto mapped = GirEngine::Open(
      EngineConfig::FromArena(dir, &mmap_disk, MakeScoring("Linear", 3)));
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  ASSERT_FALSE((*mapped)->has_master_tree());

  MinScoring fn(3);
  ApproxGirOptions opt;
  opt.rays = 8;
  opt.probability_samples = 20;
  const Vec q = {0.6, 0.5, 0.8};
  auto want = ApproxGir::Compute(heap->flat_tree(), fn, q, 5, opt);
  auto got = ApproxGir::Compute((*mapped)->flat_tree(), fn, q, 5, opt);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got->result(), want->result());
  EXPECT_EQ(got->boundary_points(), want->boundary_points());
  EXPECT_EQ(got->preserved_probability(), want->preserved_probability());
}

}  // namespace
}  // namespace gir
