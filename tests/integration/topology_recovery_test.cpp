// §9 dynamic topology under failure: a split that lands while its parent
// still has transactional recovery pending must migrate the replay floor to
// BOTH daughters (TP-inheritance extended to splits), and a merge must be
// refused while a participant is recovering — otherwise a pinned replay
// floor could be folded into a region whose gate has already passed.
#include <gtest/gtest.h>

#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class TopologyRecoveryTest : public ::testing::Test {
 protected:
  TopologyRecoveryTest() : bed_(config()) {}

  static TestbedConfig config() {
    TestbedConfig cfg = fast_test_config(3, 1);
    // WAL syncer effectively off: TP(s) cannot advance, so a ghost failure
    // installs a floor below every commit and the gate replays are real.
    cfg.cluster.server.wal_sync_interval = seconds(100);
    return cfg;
  }

  void SetUp() override { ASSERT_TRUE(bed_.start().is_ok()); }

  std::vector<Timestamp> commit_rows(int from, int to) {
    std::vector<Timestamp> out;
    for (int i = from; i < to; ++i) {
      Transaction txn = bed_.client().begin("t");
      txn.put(Testbed::row_key(i), "c", "value-" + std::to_string(i));
      auto ts = txn.commit();
      EXPECT_TRUE(ts.is_ok());
      out.push_back(ts.value_or(kNoTimestamp));
    }
    return out;
  }

  void verify_rows(int from, int to) {
    Transaction r = bed_.client().begin("t");
    for (int i = from; i < to; ++i) {
      auto v = r.get(Testbed::row_key(i), "c");
      ASSERT_TRUE(v.is_ok());
      ASSERT_TRUE(v.value().has_value()) << "lost committed row " << i;
      EXPECT_EQ(*v.value(), "value-" + std::to_string(i));
    }
    r.abort();
  }

  /// Install a pending replay floor on `region` as a server failure would,
  /// without crashing anything: the hook path is identical (the master
  /// calls on_server_failure before reassigning), so the RM records the
  /// region as recovering at the conservative published-TP bound.
  void install_pending_floor(const std::string& region) {
    static_cast<MasterHooks&>(bed_.rm()).on_server_failure("ghost", {region});
  }

  Testbed bed_;
};

TEST_F(TopologyRecoveryTest, SplitHookMigratesFloorToBothDaughters) {
  ASSERT_TRUE(bed_.create_table("t", 100, 1).is_ok());
  // Pure hook-level contract check on synthetic names: nothing has to be
  // hosted for the floor lattice to move correctly.
  install_pending_floor("t,ghost-parent");
  ASSERT_TRUE(bed_.rm().is_region_recovering("t,ghost-parent"));
  const Timestamp floor = bed_.rm().min_recovery_floor();
  ASSERT_NE(floor, kMaxTimestamp);

  bed_.rm().on_regions_replaced({"t,ghost-parent"}, {"t,ghost-l", "t,ghost-r"}, 7);
  EXPECT_FALSE(bed_.rm().is_region_recovering("t,ghost-parent"));
  EXPECT_TRUE(bed_.rm().is_region_recovering("t,ghost-l"));
  EXPECT_TRUE(bed_.rm().is_region_recovering("t,ghost-r"));
  EXPECT_EQ(bed_.rm().stats().floor_inheritances, 2);
  // The floor never lifted across the migration (min over daughters ==
  // parent's floor), and the daughters' markers are durable while the
  // parent's are gone — an RM restart resumes the daughters, not the ghost.
  EXPECT_EQ(bed_.rm().min_recovery_floor(), floor);
  EXPECT_EQ(bed_.coord().get(kRecoveringRegionPrefix + std::string("t,ghost-l")), floor);
  EXPECT_EQ(bed_.coord().get(kRecoveringRegionPrefix + std::string("t,ghost-r")), floor);
  EXPECT_FALSE(
      bed_.coord().get(kRecoveringRegionPrefix + std::string("t,ghost-parent")).has_value());

  // Folding the daughters back together min-inherits into the merged name.
  bed_.rm().on_regions_replaced({"t,ghost-l", "t,ghost-r"}, {"t,ghost-m"}, 9);
  EXPECT_FALSE(bed_.rm().is_region_recovering("t,ghost-l"));
  EXPECT_FALSE(bed_.rm().is_region_recovering("t,ghost-r"));
  EXPECT_TRUE(bed_.rm().is_region_recovering("t,ghost-m"));
  EXPECT_EQ(bed_.rm().stats().floor_inheritances, 3);
  EXPECT_EQ(bed_.rm().min_recovery_floor(), floor);
}

TEST_F(TopologyRecoveryTest, MidRecoverySplitReplaysIntoDaughters) {
  ASSERT_TRUE(bed_.create_table("t", 100, 1).is_ok());
  auto tss = commit_rows(0, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());

  const auto regions = bed_.master().table_regions("t");
  ASSERT_EQ(regions.size(), 1u);
  const std::string parent = regions.front().region_name;

  // The parent is mid-recovery (floor installed, gate obligation pending)
  // when the balancer splits it. The commit migrates the floor to both
  // daughters BEFORE their opens, so each daughter's region gate replays
  // the un-persisted write-sets from the TM log above the inherited TPr.
  install_pending_floor(parent);
  ASSERT_TRUE(bed_.rm().is_region_recovering(parent));
  ASSERT_TRUE(bed_.master().split_region(parent).is_ok());

  const auto stats = bed_.rm().stats();
  EXPECT_EQ(stats.floor_inheritances, 2);
  EXPECT_GE(stats.regions_recovered, 2);
  EXPECT_GT(stats.writesets_replayed_server, 0) << "daughter gates never replayed";
  // Both obligations drained: floors lifted, durable markers consumed.
  EXPECT_EQ(bed_.rm().min_recovery_floor(), kMaxTimestamp);
  EXPECT_FALSE(bed_.rm().is_region_recovering(parent));
  for (const auto& loc : bed_.master().table_regions("t")) {
    EXPECT_FALSE(bed_.rm().is_region_recovering(loc.region_name)) << loc.region_name;
  }
  EXPECT_TRUE(bed_.coord().list(kRecoveringRegionPrefix).empty());

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  ASSERT_EQ(bed_.master().table_regions("t").size(), 2u);
  verify_rows(0, 40);
}

TEST_F(TopologyRecoveryTest, MergeOfRecoveringRegionIsRefused) {
  ASSERT_TRUE(bed_.create_table("t", 100, 2).is_ok());
  auto tss = commit_rows(0, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());

  auto regions = bed_.master().table_regions("t");
  ASSERT_EQ(regions.size(), 2u);
  const bool first_is_left = regions[0].descriptor.start_key.empty();
  const auto& left = regions[first_is_left ? 0 : 1];
  const auto& right = regions[first_is_left ? 1 : 0];

  install_pending_floor(left.region_name);
  auto refused = bed_.master().merge_regions(left.region_name, right.region_name);
  EXPECT_TRUE(refused.is_unavailable()) << refused;
  // Refusal is not a transition: both regions keep serving, no retired
  // record.
  EXPECT_EQ(bed_.master().table_regions("t").size(), 2u);
  EXPECT_TRUE(bed_.coord().list(kRetiredRecordPrefix).empty());

  // Drain the obligation through the gate path (as a real reassignment
  // would), then the same merge goes through.
  bed_.rm().on_region_recovered(left.region_name, left.server_id);
  ASSERT_FALSE(bed_.rm().is_region_recovering(left.region_name));
  ASSERT_TRUE(bed_.master().merge_regions(left.region_name, right.region_name).is_ok());
  ASSERT_EQ(bed_.master().table_regions("t").size(), 1u);

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 40);
}

}  // namespace
}  // namespace tfr
