// The arena is the one persisted form of the R*-tree: FlatRTree::Freeze
// packs it, an arena file stores it, and FlatRTree::Thaw rebuilds the
// updatable tree from it. These tests pin the round trip — same page
// ids, same page image, same traversals and simulated I/O — and the
// mismatches Thaw must refuse.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "index/flat_rtree.h"
#include "storage/arena_file.h"
#include "storage/snapshot_store.h"
#include "topk/brs.h"

namespace gir {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Freeze -> publish as an arena file -> map it, validated.
std::shared_ptr<const ArenaFile> PersistAsArena(const RTree& tree,
                                                const std::string& name) {
  SnapshotStore store(FreshDir(name));
  Result<SnapshotStore::WriteStats> wrote =
      store.WriteArena(FlatRTree::Freeze(tree), /*version=*/1);
  EXPECT_TRUE(wrote.ok()) << wrote.status().message();
  Result<std::shared_ptr<const ArenaFile>> arena =
      ArenaFile::Open(wrote.value().path);
  EXPECT_TRUE(arena.ok()) << arena.status().message();
  return arena.value();
}

TEST(ThawTest, FullTreeRoundTripIsPageIdentical) {
  Rng rng(5);
  Dataset data = GenerateIndependent(5000, 3, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  std::shared_ptr<const ArenaFile> arena = PersistAsArena(tree, "thaw_full");
  Result<std::unique_ptr<Dataset>> rows = arena->BuildDataset();
  ASSERT_TRUE(rows.ok());
  DiskManager disk2;
  Result<FlatRTree> mapped =
      FlatRTree::FromArena(arena, rows.value().get(), &disk2);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  Result<RTree> thawed = mapped->Thaw(rows.value().get(), &disk2);
  ASSERT_TRUE(thawed.ok()) << thawed.status().message();
  EXPECT_EQ(thawed->size(), tree.size());
  EXPECT_EQ(thawed->node_count(), tree.node_count());
  EXPECT_EQ(thawed->root(), tree.root());
  EXPECT_EQ(disk2.allocated_pages(), tree.node_count());
  ASSERT_TRUE(thawed->Validate().ok()) << thawed->Validate().ToString();
  EXPECT_EQ(BuildArenaImage(FlatRTree::Freeze(*thawed), 1),
            BuildArenaImage(FlatRTree::Freeze(tree), 1));

  // Queries on the thawed tree match the original, page for page.
  LinearScoring scoring(3);
  for (int trial = 0; trial < 5; ++trial) {
    Vec w = {rng.Uniform(0.1, 1.0), rng.Uniform(0.1, 1.0),
             rng.Uniform(0.1, 1.0)};
    Result<TopKResult> a = RunBrs(tree, scoring, w, 10);
    Result<TopKResult> b = RunBrs(*thawed, scoring, w, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result, b->result);
    EXPECT_EQ(a->io.reads, b->io.reads);  // identical page access paths
  }
}

TEST(ThawTest, RejectsDimMismatch) {
  Rng rng(7);
  Dataset data = GenerateIndependent(100, 2, rng);
  DiskManager disk;
  FlatRTree flat = FlatRTree::Freeze(RTree::BulkLoad(&data, &disk));
  Dataset other(3);
  DiskManager disk2;
  Result<RTree> thawed = flat.Thaw(&other, &disk2);
  ASSERT_FALSE(thawed.ok());
  EXPECT_EQ(thawed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThawTest, RejectsPageSizeMismatch) {
  Rng rng(8);
  Dataset data = GenerateIndependent(500, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  // Half-size pages hold fewer entries: the image's nodes would not fit.
  DiskManager small_pages(2048);
  Result<RTree> thawed = flat.Thaw(&data, &small_pages);
  ASSERT_FALSE(thawed.ok());
  EXPECT_EQ(thawed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThawTest, RejectsADiskThatAlreadyHoldsPages) {
  Rng rng(9);
  Dataset data = GenerateIndependent(300, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  FlatRTree flat = FlatRTree::Freeze(tree);
  // The thaw allocates one page per node slot, so on a used disk the
  // page ids would not line up with the image's.
  Result<RTree> thawed = flat.Thaw(&data, &disk);
  ASSERT_FALSE(thawed.ok());
  EXPECT_EQ(thawed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ArenaCodecTest, DamagedImagesAreRejectedAtOpen) {
  Rng rng(6);
  Dataset data = GenerateIndependent(500, 2, rng);
  DiskManager disk;
  RTree tree = RTree::BulkLoad(&data, &disk);
  const std::vector<uint8_t> image =
      BuildArenaImage(FlatRTree::Freeze(tree), 1);
  const std::string dir = FreshDir("arena_codec_damage");
  std::filesystem::create_directories(dir);
  const auto write = [&dir](const std::string& name,
                            const std::vector<uint8_t>& bytes) {
    const std::string path = dir + "/" + name;
    FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return path;
  };
  std::vector<uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xFF;
  std::vector<uint8_t> truncated(image.begin(), image.end() - kArenaAlign);
  EXPECT_TRUE(ArenaFile::Open(write("intact.garn", image)).ok());
  for (const auto& [name, bytes] :
       {std::make_pair(std::string("magic.garn"), bad_magic),
        std::make_pair(std::string("short.garn"), truncated)}) {
    Result<std::shared_ptr<const ArenaFile>> opened =
        ArenaFile::Open(write(name, bytes));
    ASSERT_FALSE(opened.ok()) << name;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss) << name;
  }
}

TEST(ArenaCodecTest, EveryNodeOfLargeTreeFitsItsPage) {
  // The page-budget invariant that the capacity formula promises: a
  // node header plus Capacity() entries of one child id and a 2*d
  // double box fit one page, and no node holds more.
  Rng rng(9);
  for (int d : {2, 4, 6, 8}) {
    Dataset data = GenerateIndependent(3000, d, rng);
    DiskManager disk;
    RTree tree = RTree::BulkLoad(&data, &disk);
    const size_t entry_bytes = sizeof(int32_t) + 2 * d * sizeof(double);
    EXPECT_LE(16 + tree.Capacity() * entry_bytes, disk.page_size_bytes());
    for (size_t n = 0; n < tree.node_count(); ++n) {
      EXPECT_LE(tree.PeekNode(static_cast<PageId>(n)).entries.size(),
                tree.Capacity())
          << "d=" << d << " node " << n;
    }
  }
}

}  // namespace
}  // namespace gir
