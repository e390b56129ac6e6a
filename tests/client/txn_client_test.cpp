#include "src/client/txn_client.h"

#include <gtest/gtest.h>

#include "src/testbed/testbed.h"

namespace tfr {
namespace {

class TxnClientTest : public ::testing::Test {
 protected:
  TxnClientTest() : bed_(fast_test_config(2, 1)) {}

  void SetUp() override {
    ASSERT_TRUE(bed_.start().is_ok());
    ASSERT_TRUE(bed_.create_table("t", 1000, 4).is_ok());
  }

  Testbed bed_;
};

TEST_F(TxnClientTest, CommitThenReadBack) {
  Transaction w = bed_.client().begin("t");
  w.put("k", "c", "hello");
  auto ts = w.commit();
  ASSERT_TRUE(ts.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts.value()));

  Transaction r = bed_.client().begin("t");
  auto v = r.get("k", "c");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().value(), "hello");
  r.abort();
}

TEST_F(TxnClientTest, ReadYourOwnWrites) {
  Transaction txn = bed_.client().begin("t");
  txn.put("k", "c", "buffered");
  EXPECT_EQ(txn.get("k", "c").value().value(), "buffered");
  txn.del("k", "c");
  EXPECT_FALSE(txn.get("k", "c").value().has_value());
  txn.abort();
}

TEST_F(TxnClientTest, AbortDiscardsEverything) {
  Transaction txn = bed_.client().begin("t");
  txn.put("gone", "c", "x");
  txn.abort();
  ASSERT_TRUE(bed_.client().wait_flushed());

  Transaction r = bed_.client().begin("t");
  EXPECT_FALSE(r.get("gone", "c").value().has_value());
  r.abort();
  EXPECT_EQ(bed_.client().stats().aborts, 2);  // the explicit aborts above
  EXPECT_TRUE(bed_.tm().log().fetch_after(0).empty()) << "aborts are never logged";
}

TEST_F(TxnClientTest, DeleteBecomesTombstone) {
  Transaction w = bed_.client().begin("t");
  w.put("k", "c", "v");
  auto ts1 = w.commit();
  ASSERT_TRUE(ts1.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  // The deleting transaction's snapshot must cover ts1, or the write-write
  // conflict check (correctly) aborts it.
  ASSERT_TRUE(bed_.wait_stable(ts1.value()));

  Transaction d = bed_.client().begin("t");
  d.del("k", "c");
  auto ts2 = d.commit();
  ASSERT_TRUE(ts2.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts2.value()));

  Transaction r = bed_.client().begin("t");
  EXPECT_FALSE(r.get("k", "c").value().has_value());
  r.abort();
}

TEST_F(TxnClientTest, WriteWriteConflictSecondCommitterAborts) {
  Transaction t1 = bed_.client().begin("t");
  Transaction t2 = bed_.client().begin("t");
  t1.put("contested", "c", "first");
  t2.put("contested", "c", "second");
  ASSERT_TRUE(t1.commit().is_ok());
  auto second = t2.commit();
  EXPECT_TRUE(second.status().is_aborted());
  EXPECT_GE(bed_.client().stats().aborts, 1);
}

TEST_F(TxnClientTest, ScanSeesCommittedAndBufferedRows) {
  Transaction w = bed_.client().begin("t");
  w.put("a1", "c", "v1");
  w.put("a2", "c", "v2");
  auto ts = w.commit();
  ASSERT_TRUE(ts.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts.value()));

  Transaction r = bed_.client().begin("t");
  r.put("a3", "c", "buffered");
  r.del("a1", "c");
  auto cells = r.scan("a", "b", 0);
  ASSERT_TRUE(cells.is_ok());
  ASSERT_EQ(cells.value().size(), 2u);
  EXPECT_EQ(cells.value()[0].row, "a2");
  EXPECT_EQ(cells.value()[1].row, "a3");
  r.abort();
}

TEST_F(TxnClientTest, CommitOnFinishedTransactionRejected) {
  Transaction txn = bed_.client().begin("t");
  txn.abort();
  EXPECT_EQ(txn.commit().status().code(), Code::kInvalidArgument);
}

TEST_F(TxnClientTest, ReadOnlyTransactionCommits) {
  Transaction txn = bed_.client().begin("t");
  (void)txn.get("whatever", "c");
  auto ts = txn.commit();
  EXPECT_TRUE(ts.is_ok());
  EXPECT_TRUE(bed_.client().wait_flushed());
}

// Read-only commits draw no timestamp, so the flush tracker never sees them:
// nothing is in flight, and the idle fast path carries TF(c) to the oracle.
void expect_read_only_client_stays_idle(SnapshotMode mode) {
  TestbedConfig cfg = fast_test_config(2, 1);
  cfg.client.snapshot = mode;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", 1000, 4).is_ok());
  TxnClient& client = bed.client();
  Transaction w = client.begin("t");
  w.put("seed", "c", "v");
  ASSERT_TRUE(w.commit().is_ok());
  ASSERT_TRUE(client.wait_flushed());
  const Timestamp oracle = bed.tm().current_ts();
  for (int i = 0; i < 20; ++i) {
    Transaction r = client.begin("t");
    ASSERT_TRUE(r.get("seed", "c").is_ok());
    auto ts = r.commit();
    ASSERT_TRUE(ts.is_ok());
    EXPECT_EQ(ts.value(), r.snapshot_ts());
    EXPECT_EQ(client.flush_backlog(), 0u) << "a read-only commit put nothing in flight";
  }
  EXPECT_EQ(bed.tm().current_ts(), oracle) << "read-only commits draw no timestamp";
  client.heartbeat_now();  // advance(current_ts()) through the idle fast path
  EXPECT_EQ(client.tf(), bed.tm().current_ts());
  EXPECT_EQ(client.stats().commits, 21);
}

TEST(TxnClientReadOnlyTest, LatestModeLeavesNothingInFlight) {
  expect_read_only_client_stays_idle(SnapshotMode::kLatest);
}

TEST(TxnClientReadOnlyTest, StableModeLeavesNothingInFlight) {
  expect_read_only_client_stays_idle(SnapshotMode::kStable);
}

TEST_F(TxnClientTest, SnapshotIsolationReaderSeesFrozenSnapshot) {
  Transaction w1 = bed_.client().begin("t");
  w1.put("row", "c", "v1");
  auto ts1 = w1.commit();
  ASSERT_TRUE(ts1.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts1.value()));

  Transaction reader = bed_.client().begin("t");
  // A later committed write is invisible to the open snapshot.
  Transaction w2 = bed_.client().begin("t");
  w2.put("row", "c", "v2");
  auto ts2 = w2.commit();
  ASSERT_TRUE(ts2.is_ok());
  ASSERT_TRUE(bed_.client().wait_flushed());
  ASSERT_TRUE(bed_.wait_stable(ts2.value()));

  EXPECT_EQ(reader.get("row", "c").value().value(), "v1");
  reader.abort();

  Transaction fresh = bed_.client().begin("t");
  EXPECT_EQ(fresh.get("row", "c").value().value(), "v2");
  fresh.abort();
}

TEST_F(TxnClientTest, SyncCommitModeFlushesBeforeReturn) {
  TestbedConfig cfg = fast_test_config(1, 0);
  cfg.client.sync_commit = true;
  cfg.cluster.server.sync_wal_on_write = true;
  Testbed sync_bed(cfg);
  ASSERT_TRUE(sync_bed.start().is_ok());
  ASSERT_TRUE(sync_bed.create_table("t", 100, 1).is_ok());
  auto client = sync_bed.add_client();
  ASSERT_TRUE(client.is_ok());

  Transaction txn = client.value()->begin("t");
  txn.put("k", "c", "v");
  auto ts = txn.commit();
  ASSERT_TRUE(ts.is_ok());
  // No background flush: the write-set is already on the server, WAL-synced
  // (wait_flushed only drains the tracker queues; nothing is in flight).
  EXPECT_TRUE(client.value()->wait_flushed(millis(200)));
  EXPECT_GE(sync_bed.cluster().server(0).wal().synced_seq(), 1u);
}

TEST_F(TxnClientTest, StatsCountCommits) {
  for (int i = 0; i < 3; ++i) {
    Transaction txn = bed_.client().begin("t");
    txn.put("s" + std::to_string(i), "c", "v");
    ASSERT_TRUE(txn.commit().is_ok());
  }
  EXPECT_EQ(bed_.client().stats().commits, 3);
  ASSERT_TRUE(bed_.client().wait_flushed());
  EXPECT_EQ(bed_.client().stats().flushes_completed, 3);
}

TEST_F(TxnClientTest, CrashedClientRejectsNewWork) {
  bed_.crash_client(0);
  Transaction txn = bed_.client().begin("t");
  txn.put("k", "c", "v");
  EXPECT_EQ(txn.commit().status().code(), Code::kClosed);
}

}  // namespace
}  // namespace tfr
