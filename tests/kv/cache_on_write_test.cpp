// Cache-on-write: a memstore flush and a compaction insert the blocks of the
// store file they write into the server's block cache once the file is
// attached, so the written working set is read without DFS block reads —
// and an output that is discarded, fenced or raced never enters the cache.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"
#include "src/kv/region.h"

namespace tfr {
namespace {

class CacheOnWriteTest : public ::testing::Test {
 protected:
  CacheOnWriteTest() : dfs_(DfsConfig{}), cache_(1 << 20) {}

  std::unique_ptr<Region> make_region(BlockCache& cache) {
    // 256-byte blocks: every file below spans several blocks.
    auto region =
        std::make_unique<Region>(RegionDescriptor{"t", "", ""}, dfs_, cache, /*block=*/256);
    EXPECT_TRUE(region->load_store_files().is_ok());
    region->set_state(RegionState::kOnline);
    return region;
  }

  /// One flushed store file: rows row00..row39, every row written at `ts`.
  void write_file(Region& region, Timestamp ts) {
    std::vector<Cell> cells;
    for (int i = 0; i < 40; ++i) {
      char row[16];
      std::snprintf(row, sizeof(row), "row%02d", i);
      cells.push_back(Cell{row, "c", "v" + std::to_string(ts), ts, false});
    }
    ASSERT_TRUE(region.apply(cells));
    ASSERT_TRUE(region.flush_memstore().is_ok());
  }

  /// Sum of byte_size over every cell the region holds, i.e. what the cache
  /// holds when exactly the live files' blocks are resident.
  std::int64_t live_bytes(Region& region) {
    std::int64_t total = 0;
    const auto cells = region.dump_cells();
    for (const auto& c : cells.value()) {
      total += static_cast<std::int64_t>(c.byte_size());
    }
    return total;
  }

  std::int64_t block_reads() { return dfs_.stats().block_reads; }

  Dfs dfs_;
  BlockCache cache_;
};

TEST_F(CacheOnWriteTest, FlushedFileIsReadWithoutDfsBlockReads) {
  auto region = make_region(cache_);
  const std::int64_t before_flush = block_reads();
  write_file(*region, 5);
  EXPECT_EQ(block_reads(), before_flush) << "a flush opens its output from the writer's bytes";
  EXPECT_GT(cache_.stats().write_inserts, 1);
  EXPECT_EQ(cache_.stats().bytes, live_bytes(*region));

  const std::int64_t before = block_reads();
  const std::int64_t misses = cache_.stats().misses;
  EXPECT_EQ(region->get("row17", "c", 10).value()->value, "v5");
  auto scanned = region->scan("row30", "", 10, /*limit=*/5);
  ASSERT_TRUE(scanned.is_ok());
  EXPECT_EQ(scanned.value().size(), 5u);
  EXPECT_EQ(block_reads(), before) << "a just-flushed file must be read from the cache";
  EXPECT_EQ(cache_.stats().misses, misses);
}

TEST_F(CacheOnWriteTest, CompactionReadsCachedInputsAndCachesItsOutput) {
  auto region = make_region(cache_);
  for (Timestamp ts = 1; ts <= 4; ++ts) write_file(*region, ts);
  ASSERT_EQ(region->store_file_count(), 4u);

  // The inputs were written hot and the output is opened from the writer's
  // bytes, so the compaction reads nothing from the DFS.
  std::int64_t before = block_reads();
  ASSERT_TRUE(region->compact(kNoTimestamp).is_ok());
  ASSERT_EQ(region->store_file_count(), 1u);
  EXPECT_EQ(block_reads(), before) << "a hot compaction must make no DFS read";
  before = block_reads();

  EXPECT_EQ(region->get("row03", "c", 100).value()->value, "v4");
  EXPECT_EQ(region->get("row03", "c", 2).value()->value, "v2");
  auto scanned = region->scan("row10", "", 100, /*limit=*/10);
  ASSERT_TRUE(scanned.is_ok());
  EXPECT_EQ(scanned.value().size(), 10u);
  EXPECT_EQ(block_reads(), before) << "the compaction output must be read from the cache";
}

TEST_F(CacheOnWriteTest, CompactedInputsLeaveTheCache) {
  Counter& global_bytes = global_counter("kv.cache.bytes");
  auto region = make_region(cache_);
  for (Timestamp ts = 1; ts <= 4; ++ts) write_file(*region, ts);
  const std::int64_t cached_before = cache_.stats().bytes;
  const std::int64_t global_before = global_bytes.get();
  ASSERT_EQ(cached_before, live_bytes(*region));

  // Prune everything but the newest version: the output is a quarter of
  // the inputs, and the inputs' blocks must be gone, not merely evictable.
  ASSERT_TRUE(region->compact(/*prune_before_ts=*/4).is_ok());
  const std::int64_t cached_after = cache_.stats().bytes;
  EXPECT_EQ(cached_after, live_bytes(*region));
  EXPECT_EQ(cached_after * 4, cached_before);
  EXPECT_EQ(global_bytes.get() - global_before, cached_after - cached_before);
  EXPECT_EQ(cache_.stats().evictions, 0);
}

TEST_F(CacheOnWriteTest, CompactionThatRacesAFlushIsNotCached) {
  FaultInjector fault;
  dfs_.set_fault_injector(&fault);
  auto region = make_region(cache_);
  for (Timestamp ts = 1; ts <= 2; ++ts) write_file(*region, ts);
  // The compaction's output is sf-3: hold its DFS sync long enough for a
  // flush to land in between, so the compaction's swap check fails.
  FaultRule slow;
  slow.op = FaultOp::kDfsSync;
  slow.target = region->data_dir() + "sf-3";
  slow.delay_probability = 1;
  slow.delay = millis(300);
  fault.add_rule(slow);

  const std::int64_t inserts_before = cache_.stats().write_inserts;
  Status compacted;
  std::thread compactor([&] { compacted = region->compact(kNoTimestamp); });
  while (fault.stats().injected_delays == 0) sleep_micros(millis(1));
  write_file(*region, 9);  // sf-4, attached while the compaction sleeps
  const std::int64_t flush_inserts = cache_.stats().write_inserts - inserts_before;
  compactor.join();
  fault.clear_rules();

  EXPECT_TRUE(compacted.is_unavailable()) << compacted;
  EXPECT_EQ(region->store_file_count(), 3u);
  EXPECT_GT(flush_inserts, 0);
  EXPECT_EQ(cache_.stats().write_inserts - inserts_before, flush_inserts)
      << "the discarded compaction output must not be cached";
  EXPECT_EQ(cache_.stats().bytes, live_bytes(*region));
  dfs_.set_fault_injector(nullptr);
}

TEST_F(CacheOnWriteTest, FencedFlushIsNotCached) {
  EpochRegistry epochs;
  auto region = make_region(cache_);
  region->set_epoch(1);
  region->set_epoch_registry(&epochs);
  epochs.advance_to(region->name(), 2);  // a successor owns the region now
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v", 5, false}}));
  EXPECT_TRUE(region->flush_memstore().is_wrong_epoch());
  EXPECT_EQ(cache_.stats().write_inserts, 0);
  EXPECT_EQ(cache_.stats().bytes, 0);
}

TEST_F(CacheOnWriteTest, TinyCacheStaysWithinCapacity) {
  BlockCache tiny(2048);  // 16 stripes of 128 bytes: below one block
  auto region = make_region(tiny);
  for (Timestamp ts = 1; ts <= 3; ++ts) write_file(*region, ts);
  ASSERT_TRUE(region->compact(kNoTimestamp).is_ok());
  EXPECT_GT(tiny.stats().write_inserts, 0);
  EXPECT_GT(tiny.stats().evictions, 0);
  EXPECT_LE(tiny.stats().bytes, static_cast<std::int64_t>(tiny.capacity()));
  EXPECT_EQ(region->get("row39", "c", 100).value()->value, "v3");
  EXPECT_LE(tiny.stats().bytes, static_cast<std::int64_t>(tiny.capacity()));
}

// Without a recovery manager no snapshot floor is published, so the
// server's automatic compactions keep every version.
TEST(SnapshotFloorPruningTest, NoPublishedFloorPrunesNothing) {
  ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(150);
  cfg.server.wal_sync_interval = millis(10);
  cfg.server.memstore_flush_bytes = 1;  // flush every write
  cfg.server.compaction_file_threshold = 3;
  Cluster cluster(cfg);
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  ASSERT_FALSE(cluster.coord().get(kSnapshotFloorPath).has_value());
  Counter& pruned = global_counter("kv.compaction.versions_pruned");
  const std::int64_t pruned_before = pruned.get();
  KvClient client(cluster.master(), millis(1));
  for (Timestamp ts = 1; ts <= 20; ++ts) {
    WriteSet ws;
    ws.commit_ts = ts;
    ws.client_id = "c";
    ws.table = "t";
    ws.mutations.push_back(Mutation{"row", "c", "v" + std::to_string(ts), false});
    ASSERT_TRUE(client.flush_writeset(ws).is_ok());
  }
  auto region = cluster.server(0).region("t,");
  ASSERT_NE(region, nullptr);
  EXPECT_LE(region->store_file_count(), 4u) << "automatic compaction ran";
  EXPECT_EQ(region->dump_cells().value().size(), 20u) << "every version kept";
  EXPECT_EQ(pruned.get(), pruned_before);
  EXPECT_EQ(client.get("t", "row", "c", 1).value()->value, "v1");
  cluster.stop();
}

}  // namespace
}  // namespace tfr
