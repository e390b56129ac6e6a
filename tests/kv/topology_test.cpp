// Dynamic region topology (§9): split-key selection from store-file
// metadata, reference-marker inheritance, compaction dereferencing, the
// master's janitor, merges, the balancer triggers, and the client routing
// cache that keeps up with all of it.
#include <gtest/gtest.h>

#include <set>

#include "src/common/metrics.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"
#include "src/kv/store_file.h"

namespace tfr {
namespace {

// --- store-file split metadata -----------------------------------------------

TEST(SplitMetadataTest, MidpointRowAndDataBytes) {
  Dfs dfs{DfsConfig{}};
  StoreFileWriter writer(/*target_block_bytes=*/128);
  for (int i = 0; i < 100; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    writer.add(Cell{row, "c", "value-" + std::to_string(i), 1, false});
  }
  ASSERT_TRUE(writer.finish(dfs, "/sf").is_ok());
  auto reader = StoreFileReader::open(dfs, "/sf").value();
  ASSERT_GT(reader->block_count(), 2u);
  EXPECT_GT(reader->data_bytes(), 0u);
  const std::string mid = reader->midpoint_row();
  EXPECT_GT(mid, "row00000");
  EXPECT_LT(mid, "row00099");
}

// --- region-level split support ----------------------------------------------

class TopologyRegionTest : public ::testing::Test {
 protected:
  TopologyRegionTest() : dfs_(DfsConfig{}), cache_(1 << 20) {}

  std::unique_ptr<Region> make_region() {
    auto region = std::make_unique<Region>(RegionDescriptor{"t", "", ""}, dfs_, cache_,
                                           /*store_block_bytes=*/256);
    EXPECT_TRUE(region->load_store_files().is_ok());
    region->set_state(RegionState::kOnline);
    return region;
  }

  Dfs dfs_;
  BlockCache cache_;
};

TEST_F(TopologyRegionTest, ChooseSplitKeyDividesTheKeyRange) {
  auto region = make_region();
  std::vector<Cell> cells;
  for (int i = 0; i < 200; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    cells.push_back(Cell{row, "c", "v" + std::to_string(i), 1, false});
  }
  ASSERT_TRUE(region->apply(cells));
  ASSERT_TRUE(region->flush_memstore().is_ok());
  auto key = region->choose_split_key();
  ASSERT_TRUE(key.is_ok());
  EXPECT_GT(key.value(), "row00000");
  EXPECT_LT(key.value(), "row00199");
}

TEST_F(TopologyRegionTest, ChooseSplitKeyRefusesSingleRow) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"only", "c", "v", 1, false}}));
  EXPECT_EQ(region->choose_split_key().status().code(), Code::kInvalidArgument);
  // Even across a flush (one row, one store file): still nothing to split.
  ASSERT_TRUE(region->flush_memstore().is_ok());
  EXPECT_EQ(region->choose_split_key().status().code(), Code::kInvalidArgument);
}

TEST_F(TopologyRegionTest, ApplyRejectedWhenOffline) {
  auto region = make_region();
  ASSERT_TRUE(region->apply({Cell{"r", "c", "v", 1, false}}));
  region->set_state(RegionState::kOffline);
  EXPECT_FALSE(region->apply({Cell{"r2", "c", "v2", 2, false}}));
  region->set_state(RegionState::kOnline);
  // Nothing leaked into the memstore while offline.
  EXPECT_FALSE(region->get("r2", "c", 10).value().has_value());
}

// --- cluster-level topology transitions ---------------------------------------

ClusterConfig topo_cluster(int servers) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(20);
  cfg.server.session_ttl = millis(150);
  cfg.server.wal_sync_interval = millis(10);
  // Keep auto-compaction out of the way: these tests assert on reference
  // markers, which a background compaction legitimately removes.
  cfg.server.compaction_file_threshold = 0;
  return cfg;
}

WriteSet rows_ws(Timestamp ts, int from, int to) {
  WriteSet ws;
  ws.commit_ts = ts;
  ws.client_id = "c";
  ws.table = "t";
  for (int i = from; i < to; ++i) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    ws.mutations.push_back(Mutation{row, "c", "v" + std::to_string(i), false});
  }
  return ws;
}

std::size_t count_ref_markers(Dfs& dfs, const std::string& region_name) {
  std::size_t n = 0;
  for (const auto& path : dfs.list(region_data_dir(region_name))) {
    const auto slash = path.rfind('/');
    if (slash != std::string::npos && path.compare(slash + 1, 4, "ref-") == 0) ++n;
  }
  return n;
}

TEST(TopologyClusterTest, SplitInheritsFilesByReference) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  const std::string parent = cluster.master().table_regions("t").front().region_name;
  ASSERT_TRUE(cluster.master().split_region(parent).is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);

  // Daughters hold reference markers, not copies; the parent's store files
  // survive in its (retired) dir and every row reads through the refs.
  for (const auto& r : regions) {
    EXPECT_GT(count_ref_markers(cluster.dfs(), r.region_name), 0u) << r.region_name;
    auto region = cluster.master().server_stub(r.server_id)->region(r.region_name);
    ASSERT_NE(region, nullptr);
    EXPECT_TRUE(region->has_references());
  }
  EXPECT_FALSE(cluster.dfs().list(region_data_dir(parent)).empty());
  for (int i = 0; i < 100; i += 9) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
  // The transition left one durable retired record (the parent) for the
  // janitor.
  EXPECT_EQ(cluster.coord().list(kRetiredRecordPrefix).size(), 1u);
}

TEST(TopologyClusterTest, CompactionDereferencesAndJanitorReclaims) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  const std::string parent = cluster.master().table_regions("t").front().region_name;
  ASSERT_TRUE(cluster.master().split_region(parent).is_ok());

  // While refs are live the janitor must not touch the parent dir.
  cluster.master().balance_once();
  EXPECT_FALSE(cluster.dfs().list(region_data_dir(parent)).empty());
  EXPECT_EQ(cluster.coord().list(kRetiredRecordPrefix).size(), 1u);

  // Compacting each daughter rewrites its half locally and drops the marker.
  auto compact_all = [&] {
    for (const auto& r : cluster.master().table_regions("t")) {
      auto* server = cluster.master().server_stub(r.server_id);
      ASSERT_NE(server, nullptr);
      ASSERT_TRUE(server->compact_region(r.region_name).is_ok());
      auto region = server->region(r.region_name);
      ASSERT_NE(region, nullptr);
      EXPECT_FALSE(region->has_references());
      EXPECT_EQ(count_ref_markers(cluster.dfs(), r.region_name), 0u);
    }
  };
  compact_all();

  // Now the janitor reclaims the retired parent dir and the record.
  cluster.master().balance_once();
  EXPECT_TRUE(cluster.dfs().list(region_data_dir(parent)).empty());
  EXPECT_TRUE(cluster.coord().list(kRetiredRecordPrefix).empty());

  // A merge retires both daughters the same way: one record each, kept
  // while the merged region still reads through their files.
  auto daughters = cluster.master().table_regions("t");
  ASSERT_EQ(daughters.size(), 2u);
  if (!daughters[0].descriptor.start_key.empty()) std::swap(daughters[0], daughters[1]);
  ASSERT_TRUE(cluster.master()
                  .merge_regions(daughters[0].region_name, daughters[1].region_name)
                  .is_ok());
  cluster.master().balance_once();
  EXPECT_EQ(cluster.coord().list(kRetiredRecordPrefix).size(), 2u);
  for (const auto& d : daughters) {
    EXPECT_FALSE(cluster.dfs().list(region_data_dir(d.region_name)).empty()) << d.region_name;
  }

  // Compacting the merged region drops its markers; the next tick purges
  // both retired daughters' dirs and erases both records.
  compact_all();
  cluster.master().balance_once();
  for (const auto& d : daughters) {
    EXPECT_TRUE(cluster.dfs().list(region_data_dir(d.region_name)).empty()) << d.region_name;
  }
  EXPECT_TRUE(cluster.coord().list(kRetiredRecordPrefix).empty());

  for (int i = 0; i < 100; i += 11) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i));
  }
}

TEST(TopologyClusterTest, MergeAdjacentRegions) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"row00050"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);
  const std::string left =
      regions[0].descriptor.start_key.empty() ? regions[0].region_name : regions[1].region_name;
  const std::string right =
      regions[0].descriptor.start_key.empty() ? regions[1].region_name : regions[0].region_name;
  ASSERT_TRUE(cluster.master().merge_regions(left, right).is_ok());

  regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_TRUE(regions[0].descriptor.start_key.empty());
  EXPECT_TRUE(regions[0].descriptor.end_key.empty());
  // One retired record per parent.
  EXPECT_EQ(cluster.coord().list(kRetiredRecordPrefix).size(), 2u);
  for (int i = 0; i < 100; i += 7) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    EXPECT_EQ(client.get("t", row, "c", 100).value()->value, "v" + std::to_string(i));
  }
  // Writes land in the merged region.
  ASSERT_TRUE(client.flush_writeset(rows_ws(2, 0, 10)).is_ok());
}

TEST(TopologyClusterTest, MergeRefusesNonAdjacentRegions) {
  Cluster cluster(topo_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"g", "q"}).is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 3u);
  // Regions come back sorted by start key: ["", g), [g, q), [q, "").
  EXPECT_EQ(cluster.master()
                .merge_regions(regions[0].region_name, regions[2].region_name)
                .code(),
            Code::kInvalidArgument);
  // Order matters too: (right, left) is not an adjacent pair.
  EXPECT_EQ(cluster.master()
                .merge_regions(regions[1].region_name, regions[0].region_name)
                .code(),
            Code::kInvalidArgument);
}

// --- the shared abort path --------------------------------------------------

// Fail the first DFS sync under /data/: with the parents' memstores already
// flushed, that is the first ref- marker write of the hand-off.
void fail_first_marker_write(Cluster& cluster) {
  FaultRule rule;
  rule.op = FaultOp::kDfsSync;
  rule.target = "/data/";
  rule.fail_next = 1;
  cluster.fault().add_rule(rule);
  cluster.fault().set_enabled(true);
}

// An aborted transition leaves the assignment as it was, every parent online
// and serving reads, no ref- marker anywhere and no retired record.
void expect_aborted_cleanly(Cluster& cluster, KvClient& client,
                            const std::vector<RegionLocation>& before) {
  const auto after = cluster.master().table_regions("t");
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].region_name, before[i].region_name);
    EXPECT_EQ(after[i].server_id, before[i].server_id);
    EXPECT_EQ(after[i].epoch, before[i].epoch);
    auto region = cluster.master().server_stub(after[i].server_id)->region(after[i].region_name);
    ASSERT_NE(region, nullptr);
    // Fatal: reads of an offline region would retry forever.
    ASSERT_EQ(region->state(), RegionState::kOnline) << after[i].region_name;
  }
  for (int i = 0; i < 100; i += 9) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
  for (const auto& path : cluster.dfs().list("/data/")) {
    EXPECT_EQ(path.find("/ref-"), std::string::npos) << path;
  }
  EXPECT_TRUE(cluster.coord().list(kRetiredRecordPrefix).empty());
}

TEST(TopologyClusterTest, SplitMarkerWriteFailureAbortsCleanly) {
  Cluster cluster(topo_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  const auto before = cluster.master().table_regions("t");
  ASSERT_EQ(before.size(), 1u);
  const std::string parent = before[0].region_name;
  auto* host = cluster.master().server_stub(before[0].server_id);
  ASSERT_TRUE(host->region(parent)->flush_memstore().is_ok());

  fail_first_marker_write(cluster);
  EXPECT_TRUE(cluster.master().split_region(parent).is_unavailable());
  expect_aborted_cleanly(cluster, client, before);

  cluster.fault().clear_rules();
  ASSERT_TRUE(cluster.master().split_region(parent).is_ok());
  EXPECT_EQ(cluster.master().table_regions("t").size(), 2u);
}

TEST(TopologyClusterTest, MergeMarkerWriteFailureAbortsCleanly) {
  Cluster cluster(topo_cluster(1));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"row00050"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  const auto before = cluster.master().table_regions("t");
  ASSERT_EQ(before.size(), 2u);
  for (const auto& loc : before) {
    auto* host = cluster.master().server_stub(loc.server_id);
    ASSERT_TRUE(host->region(loc.region_name)->flush_memstore().is_ok());
  }
  // table_regions is sorted by start key: ["", row00050), [row00050, "").
  const std::string left = before[0].region_name;
  const std::string right = before[1].region_name;

  fail_first_marker_write(cluster);
  EXPECT_TRUE(cluster.master().merge_regions(left, right).is_unavailable());
  expect_aborted_cleanly(cluster, client, before);

  cluster.fault().clear_rules();
  ASSERT_TRUE(cluster.master().merge_regions(left, right).is_ok());
  EXPECT_EQ(cluster.master().table_regions("t").size(), 1u);
}

TEST(TopologyClusterTest, BalancerSplitsOversizedRegionAndCountsIt) {
  reset_global_counters();
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 200)).is_ok());

  BalancerConfig cfg;        // manual ticks only (interval == 0)
  cfg.split_store_bytes = 1; // any flushed region is "oversized"
  cluster.master().enable_balancer(cfg);
  cluster.master().balance_once();

  EXPECT_EQ(cluster.master().table_regions("t").size(), 2u);
  EXPECT_GE(global_counter("master.region_splits").get(), 1);
}

TEST(TopologyClusterTest, BalancerMergesColdAdjacentPair) {
  reset_global_counters();
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {"row00050"}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  BalancerConfig cfg;
  cfg.merge_traffic_ops = 1u << 20;  // everything is "cold"
  cfg.merge_store_bytes = 1ull << 30;
  cluster.master().enable_balancer(cfg);
  cluster.master().balance_once();  // first tick seeds the traffic baseline
  cluster.master().balance_once();

  EXPECT_EQ(cluster.master().table_regions("t").size(), 1u);
  EXPECT_GE(global_counter("master.region_merges").get(), 1);
}

// --- client routing cache ------------------------------------------------------

TEST(RoutingCacheTest, CachesRoutesAndInvalidatesAcrossSplit) {
  Cluster cluster(topo_cluster(2));
  ASSERT_TRUE(cluster.start().is_ok());
  ASSERT_TRUE(cluster.master().create_table("t", {}).is_ok());
  KvClient client(cluster.master(), millis(1));
  ASSERT_TRUE(client.flush_writeset(rows_ws(1, 0, 100)).is_ok());

  // Repeated reads of one row: one miss, then cache hits.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.get("t", "row00010", "c", 100).is_ok());
  }
  const auto warm = client.stats();
  EXPECT_GT(warm.route_hits, 0);
  EXPECT_GT(warm.route_misses, 0);

  // Split, then move one daughter to the OTHER server: a split alone keeps
  // the daughters co-located, so the stale cached route would still land on
  // a server that can serve the row (the RPC routes by table+row). Only
  // once ownership actually moved does the stale route hit a non-owner.
  ASSERT_TRUE(cluster.master().split_region("t,").is_ok());
  auto regions = cluster.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);
  const auto& moved = regions[0].descriptor.start_key.empty() ? regions[1] : regions[0];
  std::string target;
  for (const auto& id : cluster.master().live_servers()) {
    if (id != moved.server_id) target = id;
  }
  ASSERT_FALSE(target.empty());
  ASSERT_TRUE(cluster.master().move_region(moved.region_name, target).is_ok());

  // Every row still resolves; rows now hosted by the moved daughter force a
  // staleness signal -> invalidation -> re-locate, never a wrong answer.
  for (int i = 0; i < 100; i += 5) {
    char row[16];
    std::snprintf(row, sizeof(row), "row%05d", i);
    auto v = client.get("t", row, "c", 100);
    ASSERT_TRUE(v.is_ok());
    ASSERT_TRUE(v.value().has_value()) << row;
  }
  const auto after = client.stats();
  EXPECT_GT(after.route_invalidations, 0);
  EXPECT_GT(after.route_misses, warm.route_misses);
}

}  // namespace
}  // namespace tfr
