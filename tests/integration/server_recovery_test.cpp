// §3.2 — server failure handling: store-internal WAL-split recovery, the
// region gate, transactional replay after TPr(s), TP inheritance across
// cascading failures, and interrupted client flushes.
#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() : bed_(config()) {}

  static TestbedConfig config() {
    TestbedConfig cfg = fast_test_config(3, 1);
    // Keep the WAL syncer effectively off so a crash reliably loses the
    // in-memory tail (the paper's asynchronous-persistence window).
    cfg.cluster.server.wal_sync_interval = seconds(100);
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 3000, 6).is_ok());
  }

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

  Testbed bed_;
};

TEST_F(ServerRecoveryTest, UnpersistedWritesSurviveServerCrash) {
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());
  // Nothing has been WAL-synced: the crash loses every memstore update, and
  // only the TM-log replay can bring them back.
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_GE(bed_.rm().stats().server_recoveries, 1);

  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, RecoveryDoesNotDisturbSurvivingServers) {
  auto tss = commit_rows(0, 30);
  ASSERT_TRUE(bed_.client().wait_flushed());
  const auto victim_regions = bed_.cluster().server(0).region_names();
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  // Regions that were NOT on the victim stayed where they were.
  for (const auto& loc : bed_.master().table_regions("t")) {
    if (std::find(victim_regions.begin(), victim_regions.end(), loc.region_name) ==
        victim_regions.end()) {
      EXPECT_NE(loc.server_id, "rs1");
    }
  }
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 30);
}

TEST_F(ServerRecoveryTest, OnlyWritesetsAfterTprAreReplayed) {
  // Persist a first batch everywhere and let TP advance past it; commit a
  // second batch that stays unpersisted, then crash. Only the second batch
  // should be replayed.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(first.back()));
  const Micros deadline = now_micros() + seconds(10);
  while (bed_.rm().global_tp() < first.back() && now_micros() < deadline) {
    for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
      bed_.cluster().server(s).heartbeat_now();
    }
    bed_.rm().refresh_now();
    sleep_millis(1);
  }
  ASSERT_GE(bed_.rm().global_tp(), first.back());

  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();

  const auto stats = bed_.rm().recovery_client_stats();
  // Each region replay filters the candidate write-sets; the replayed
  // mutations can only come from the second batch.
  EXPECT_LE(stats.mutations_replayed, 20);
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST_F(ServerRecoveryTest, CascadedFailureInheritanceKeepsDurability) {
  // The §3.2 scenario: replay lands on s', s' crashes before persisting the
  // replayed updates. Because s' inherited TP(s), its own recovery replays
  // them again. Without the piggyback this loses data.
  auto tss = commit_rows(0, 60);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Immediately crash a second server — the one(s) that inherited replayed
  // updates have not WAL-synced them (syncer is off; heartbeats may not
  // have fired yet with a fresh TF).
  bed_.crash_server(1);
  ASSERT_TRUE(bed_.wait_server_recoveries(2));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 60);
}

TEST_F(ServerRecoveryTest, InterruptedFlushRetriesUntilRegionsReturn) {
  // Crash first, then commit transactions whose rows live on the dead
  // server's regions: the flush blocks, retries without limit (§3.2), and
  // completes once recovery brings the regions back online.
  bed_.crash_server(0);
  auto tss = commit_rows(0, 20);  // commits succeed regardless (TM log)
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  EXPECT_TRUE(bed_.client().wait_flushed(seconds(30)))
      << "flushes must complete once the regions are back";
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, AtomicityAcrossRecoveryNoTornWritesets) {
  // A multi-region write-set is either fully visible or not at all at any
  // stable snapshot, even right after a failover.
  for (int i = 0; i < 10; ++i) {
    Transaction txn = bed_.client().begin("t");
    // Rows in different regions (spread across the keyspace).
    txn.put(Testbed::row_key(i), "c", "pair-" + std::to_string(i));
    txn.put(Testbed::row_key(2500 + i), "c", "pair-" + std::to_string(i));
    ASSERT_TRUE(txn.commit().is_ok());
  }
  ASSERT_TRUE(bed_.client().wait_flushed());
  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.client().wait_flushed());

  // Stable snapshots never show half a write-set.
  Transaction r = bed_.client().begin("t");
  for (int i = 0; i < 10; ++i) {
    auto a = r.get(Testbed::row_key(i), "c");
    auto b = r.get(Testbed::row_key(2500 + i), "c");
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a.value().has_value(), b.value().has_value()) << "torn write-set " << i;
    if (a.value().has_value()) EXPECT_EQ(*a.value(), *b.value());
  }
  r.abort();
}

TEST_F(ServerRecoveryTest, CleanShutdownNeedsNoTransactionalReplay) {
  auto tss = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.cluster().server(0).shutdown().is_ok());
  bed_.wait_for_recovery();
  EXPECT_EQ(bed_.rm().stats().server_recoveries, 0);
  ASSERT_TRUE(bed_.wait_stable(tss.back()));
  verify_rows(0, 20);
}

TEST_F(ServerRecoveryTest, SplitWalEditsCombineWithTmLogReplay) {
  // Partially persist: sync the WALs midway, then keep committing. After a
  // crash, the synced prefix returns via HBase's split-WAL recovery and the
  // suffix via the TM log; together they must cover everything.
  auto first = commit_rows(0, 20);
  ASSERT_TRUE(bed_.client().wait_flushed());
  for (int s = 0; s < bed_.cluster().num_servers(); ++s) {
    ASSERT_TRUE(bed_.cluster().server(s).persist_wal().is_ok());
  }
  auto second = commit_rows(20, 40);
  ASSERT_TRUE(bed_.client().wait_flushed());

  bed_.crash_server(0);
  ASSERT_TRUE(bed_.wait_server_recoveries(1));
  bed_.wait_for_recovery();
  ASSERT_TRUE(bed_.wait_stable(second.back()));
  verify_rows(0, 40);
}

TEST(RegionGateBatchTest, GateReplaysEveryCandidateInOneApplyRpc) {
  // One region, so one gate. The client never heartbeats, so TF (and with
  // it TP) stays below every commit: all of them are replay candidates.
  // (With TP pinned there is nothing to inherit; PersistTrackerTest counts
  // the inheritance heartbeats and syncs of a replay batch.)
  TestbedConfig cfg = fast_test_config(2, 1);
  cfg.client.heartbeat_interval = seconds(100);
  cfg.client.session_ttl = seconds(1000);
  cfg.client.snapshot = SnapshotMode::kLatest;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 100, 1).is_ok());
  constexpr int kTxns = 8;
  for (int i = 0; i < kTxns; ++i) {
    Transaction txn = bed.client().begin("t");
    txn.put(Testbed::row_key(i), "c", "v" + std::to_string(i));
    txn.put(Testbed::row_key(50 + i), "c", "w" + std::to_string(i));
    ASSERT_TRUE(txn.commit().is_ok());
  }
  ASSERT_TRUE(bed.client().wait_flushed());

  const std::string host = bed.master().table_regions("t").front().server_id;
  const int victim = bed.cluster().server(0).id() == host ? 0 : 1;
  Counter& apply_rpcs = global_counter("kv.batch_apply_rpcs");
  Histogram& gate_replay = global_histogram("rm.gate_replay_us");
  const std::int64_t rpcs_before = apply_rpcs.get();
  const std::uint64_t gates_before = gate_replay.count();
  const std::int64_t replayed_before = bed.rm().stats().writesets_replayed_server;

  bed.crash_server(victim);
  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();

  EXPECT_EQ(bed.rm().stats().writesets_replayed_server - replayed_before, kTxns);
  EXPECT_EQ(apply_rpcs.get() - rpcs_before, 1) << "one apply RPC for the whole gate";
  EXPECT_EQ(gate_replay.count() - gates_before, 1u);
  Transaction r = bed.client().begin("t");
  for (int i = 0; i < kTxns; ++i) {
    auto v = r.get(Testbed::row_key(i), "c");
    ASSERT_TRUE(v.is_ok() && v.value().has_value()) << "lost row " << i;
    EXPECT_EQ(*v.value(), "v" + std::to_string(i));
    auto w = r.get(Testbed::row_key(50 + i), "c");
    ASSERT_TRUE(w.is_ok() && w.value().has_value()) << "lost row " << 50 + i;
    EXPECT_EQ(*w.value(), "w" + std::to_string(i));
  }
  r.abort();
}

TEST(ServerCrashDuringApplyTest, WriteSetStillReachesSurvivingServer) {
  // A participant crashes while a flush slice is inside its apply: the
  // service time below keeps the slice between admission and WAL append
  // long enough for the crash to land there, so the append hits the WAL the
  // crash just closed. The client must treat that as the crash it is and
  // keep retrying — never drop the write-set — so the slice bound for the
  // surviving server arrives and TF(c) advances past the commit.
  TestbedConfig cfg = fast_test_config(3, 1);
  cfg.cluster.server.write_service = millis(80);
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 3000, 6).is_ok());

  RegionServer& victim = bed.cluster().server(0);
  RegionServer& survivor = bed.cluster().server(1);
  // The victim's id sorts first, so its slice is sent before the survivor's.
  ASSERT_LT(victim.id(), survivor.id());
  auto row_on = [&](const std::string& server_id) {
    for (std::uint64_t i = 0; i < 3000; i += 100) {
      auto loc = bed.master().locate("t", Testbed::row_key(i));
      if (loc.is_ok() && loc.value().server_id == server_id) return Testbed::row_key(i);
    }
    return std::string();
  };
  const std::string victim_row = row_on(victim.id());
  const std::string survivor_row = row_on(survivor.id());
  ASSERT_FALSE(victim_row.empty());
  ASSERT_FALSE(survivor_row.empty());

  Transaction txn = bed.client().begin("t");
  txn.put(victim_row, "c", "on-victim");
  txn.put(survivor_row, "c", "on-survivor");
  auto committed = txn.commit();
  ASSERT_TRUE(committed.is_ok());
  const Timestamp ts = committed.value();

  sleep_millis(30);  // the flusher's victim slice is now in its service time
  bed.crash_server(0);

  ASSERT_TRUE(bed.client().wait_flushed(seconds(20)))
      << "write-set dropped after the crash; TF(c) stuck at " << bed.client().tf();
  EXPECT_GE(bed.client().tf(), ts);
  auto on_survivor = survivor.get("t", survivor_row, "c", ts);
  ASSERT_TRUE(on_survivor.is_ok()) << on_survivor.status();
  ASSERT_TRUE(on_survivor.value().has_value()) << "slice never reached " << survivor.id();
  EXPECT_EQ(on_survivor.value()->value, "on-survivor");

  ASSERT_TRUE(bed.wait_server_recoveries(1));
  bed.wait_for_recovery();
  ASSERT_TRUE(bed.wait_stable(ts));
  Transaction r = bed.client().begin("t");
  auto a = r.get(victim_row, "c");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(a.value().has_value());
  EXPECT_EQ(*a.value(), "on-victim");
  r.abort();
}

}  // namespace
}  // namespace tfr
