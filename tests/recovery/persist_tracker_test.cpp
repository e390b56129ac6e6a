// Unit tests for Algorithm 3 — the server-side persist threshold TP(s).
#include "src/recovery/persist_tracker.h"

#include <gtest/gtest.h>

#include "src/common/metrics.h"

namespace tfr {
namespace {

class PersistTrackerTest : public ::testing::Test {
 protected:
  PersistTrackerTest()
      : dfs_(DfsConfig{}), coord_(seconds(10)), server_("rs1", dfs_, coord_, server_config()) {}

  static RegionServerConfig server_config() {
    RegionServerConfig cfg;
    cfg.heartbeat_interval = seconds(10);
    cfg.session_ttl = seconds(60);
    cfg.wal_sync_interval = seconds(10);  // only the tracker syncs
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(server_.start().is_ok());
    ASSERT_TRUE(server_.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());
  }

  Status apply(Timestamp ts, std::optional<Timestamp> piggyback = std::nullopt) {
    ApplyRequest req;
    req.txn_id = static_cast<std::uint64_t>(ts);
    req.client_id = "c1";
    req.commit_ts = ts;
    req.table = "t";
    req.mutations.push_back(Mutation{"row" + std::to_string(ts), "c", "v", false});
    req.piggyback_tp = piggyback;
    req.recovery_replay = piggyback.has_value();
    return server_.apply_writeset(req);
  }

  Dfs dfs_;
  Coord coord_;
  RegionServer server_;
  Timestamp global_tf_ = 0;
};

TEST_F(PersistTrackerTest, StartsAtInitialTp) {
  PersistTracker tracker(server_, [this] { return global_tf_; }, 7);
  EXPECT_EQ(tracker.tp(), 7);
}

TEST_F(PersistTrackerTest, HeartbeatPersistsAndAdvancesToGlobalTf) {
  PersistTracker tracker(server_, [this] { return global_tf_; }, 0);
  tracker.install();
  ASSERT_TRUE(apply(1).is_ok());
  ASSERT_TRUE(apply(2).is_ok());
  EXPECT_EQ(tracker.queue_size(), 2u);
  EXPECT_EQ(server_.wal().synced_seq(), 0u);

  global_tf_ = 2;  // the RM says everything <= 2 is fully flushed
  EXPECT_EQ(tracker.heartbeat_payload(), 2);
  EXPECT_EQ(tracker.tp(), 2);
  EXPECT_EQ(server_.wal().synced_seq(), 2u) << "persist step synced the WAL";
  EXPECT_EQ(tracker.queue_size(), 0u);
}

TEST_F(PersistTrackerTest, CannotAdvancePastGlobalTf) {
  // The server has received and persisted 20, 22, 23 but TF is only 20: it
  // cannot know whether it participates in 21 (§3.2's example).
  PersistTracker tracker(server_, [this] { return global_tf_; }, 0);
  tracker.install();
  ASSERT_TRUE(apply(20).is_ok());
  ASSERT_TRUE(apply(22).is_ok());
  ASSERT_TRUE(apply(23).is_ok());
  global_tf_ = 20;
  EXPECT_EQ(tracker.heartbeat_payload(), 20);
  EXPECT_EQ(tracker.queue_size(), 2u) << "22 and 23 remain tracked";
  global_tf_ = 23;
  EXPECT_EQ(tracker.heartbeat_payload(), 23);
  EXPECT_EQ(tracker.queue_size(), 0u);
}

TEST_F(PersistTrackerTest, NoProgressHeartbeatStillReportsTp) {
  PersistTracker tracker(server_, [this] { return global_tf_; }, 5);
  global_tf_ = 5;
  EXPECT_EQ(tracker.heartbeat_payload(), 5);
  EXPECT_EQ(dfs_.stats().syncs, 0) << "no new TF, no sync charged";
}

TEST_F(PersistTrackerTest, PiggybackLowersTp) {
  // Drive on_received() directly (without install()) so the immediate
  // follow-up heartbeat does not persist-and-re-advance before we can
  // observe the inherited threshold.
  PersistTracker tracker(server_, [this] { return global_tf_; }, 0);
  global_tf_ = 10;
  tracker.on_received(8, std::nullopt);
  EXPECT_EQ(tracker.heartbeat_payload(), 10);
  // A replayed update arrives with the failed server's TPr(s)=4: this
  // server inherits responsibility for the window (4, ...].
  EXPECT_TRUE(tracker.on_received(9, /*piggyback_tp=*/4));
  EXPECT_EQ(tracker.tp(), 4);
  // The next heartbeat persists the replayed update and re-advances: it is
  // now this server's responsibility AND durable, so TP may rise again.
  global_tf_ = 12;
  EXPECT_EQ(tracker.heartbeat_payload(), 12);
}

TEST_F(PersistTrackerTest, InstalledPathReAdvancesAfterImmediateHeartbeatPersists) {
  // With install(), inheritance triggers an immediate heartbeat that
  // persists the replayed update; TP legitimately returns to TF because the
  // update is durable from that moment on.
  PersistTracker tracker(server_, [this] { return global_tf_; }, 0);
  tracker.install();
  global_tf_ = 10;
  ASSERT_TRUE(apply(8).is_ok());
  EXPECT_EQ(tracker.heartbeat_payload(), 10);
  const auto synced_before = server_.wal().synced_seq();
  ASSERT_TRUE(apply(9, /*piggyback=*/4).is_ok());
  EXPECT_EQ(tracker.tp(), 10) << "immediate heartbeat persisted and re-advanced";
  EXPECT_GT(server_.wal().synced_seq(), synced_before);
}

TEST_F(PersistTrackerTest, PiggybackAboveTpIsIgnored) {
  PersistTracker tracker(server_, [this] { return global_tf_; }, 6);
  tracker.install();
  ASSERT_TRUE(apply(9, /*piggyback=*/8).is_ok());
  EXPECT_EQ(tracker.tp(), 6) << "inheritance only ever lowers the threshold";
}

TEST_F(PersistTrackerTest, InheritanceTriggersImmediateHeartbeat) {
  PersistTracker tracker(server_, [this] { return global_tf_; }, 10);
  tracker.install();
  ASSERT_TRUE(apply(11, /*piggyback=*/3).is_ok());
  // install()'s observer fires heartbeat_now() on inheritance, which
  // reports the lowered TP to the coordination service.
  auto session = coord_.session("servers", "rs1");
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(session->payload, 3);
}

TEST_F(PersistTrackerTest, ReplayBatchInheritsWithOneHeartbeatAndOneSync) {
  // A region gate replays its N candidate slices in one batch. Each slice
  // lowers TP(s) to the piggybacked TPr, but the server reports and
  // persists once for the whole batch, before the ack.
  PersistTracker tracker(server_, [this] { return global_tf_; }, 10);
  tracker.install();
  global_tf_ = 20;
  constexpr int kSlices = 6;
  BatchApplyRequest batch;
  for (int i = 0; i < kSlices; ++i) {
    ApplyRequest req;
    req.txn_id = static_cast<std::uint64_t>(11 + i);
    req.client_id = "c1";
    req.commit_ts = 11 + i;
    req.table = "t";
    req.mutations.push_back(Mutation{"row" + std::to_string(i), "c", "v", false});
    req.piggyback_tp = 3;
    req.recovery_replay = true;
    batch.slices.push_back(std::move(req));
  }
  Counter& inherit_heartbeats = global_counter("tracker.inherit_heartbeats");
  const std::int64_t heartbeats_before = inherit_heartbeats.get();
  const auto syncs_before = server_.wal().stats().syncs;
  auto statuses = server_.apply_batch(batch);
  ASSERT_TRUE(statuses.is_ok());
  for (const auto& st : statuses.value()) EXPECT_TRUE(st.is_ok()) << st;

  EXPECT_EQ(server_.wal().stats().syncs - syncs_before, 1u);
  EXPECT_EQ(inherit_heartbeats.get() - heartbeats_before, 1);
  // The one sync covered every replayed slice, so TP(s) is back at TF.
  EXPECT_EQ(server_.wal().synced_seq(), server_.wal().appended_seq());
  EXPECT_EQ(tracker.tp(), 20);
  EXPECT_EQ(coord_.session("servers", "rs1")->payload, 20);
}

TEST_F(PersistTrackerTest, ServerRegistersWithInitialTpWhenInstalledBeforeStart) {
  RegionServer fresh("rs2", dfs_, coord_, server_config());
  PersistTracker tracker(fresh, [this] { return global_tf_; }, 42);
  tracker.install();
  ASSERT_TRUE(fresh.start().is_ok());
  EXPECT_EQ(coord_.session("servers", "rs2")->payload, 42);
  ASSERT_TRUE(fresh.shutdown().is_ok());
}

TEST_F(PersistTrackerTest, FetchReturningNoTimestampLeavesTpAlone) {
  PersistTracker tracker(server_, [] { return kNoTimestamp; }, 3);
  EXPECT_EQ(tracker.heartbeat_payload(), 3);
}

}  // namespace
}  // namespace tfr
