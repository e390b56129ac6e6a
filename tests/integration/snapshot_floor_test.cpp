// Version GC below the snapshot floor: the recovery manager publishes
// min(checkpointed TP, oldest registered snapshot) next to TF/TP, and the
// region servers' automatic compactions prune below it. An open
// transaction's old snapshot therefore keeps reading its version across
// compactions; once the transaction ends, the next compaction drops that
// version. With ignore_thresholds no floor is published and nothing is
// pruned.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "src/common/metrics.h"
#include "src/testbed/testbed.h"

namespace tfr {
namespace {

TestbedConfig pruning_config(bool ignore_thresholds) {
  TestbedConfig cfg = fast_test_config(/*num_servers=*/1, /*num_clients=*/1);
  cfg.cluster.server.memstore_flush_bytes = 1;  // every write-set flushes
  cfg.cluster.server.compaction_file_threshold = 3;
  cfg.recovery.ignore_thresholds = ignore_thresholds;
  cfg.client.snapshot = SnapshotMode::kLatest;
  return cfg;
}

class SnapshotFloorTest : public ::testing::Test {
 protected:
  void start(bool ignore_thresholds) {
    bed_ = std::make_unique<Testbed>(pruning_config(ignore_thresholds));
    ASSERT_TRUE(bed_->start().is_ok());
    ASSERT_TRUE(bed_->create_table("t", 10, 1).is_ok());
  }

  /// Commit `row` = `value` and wait until it is flushed to the server.
  Timestamp put(const std::string& row, const std::string& value) {
    Transaction txn = bed_->client().begin("t");
    txn.put(row, "c", value);
    auto ts = txn.commit();
    EXPECT_TRUE(ts.is_ok()) << ts.status();
    EXPECT_TRUE(bed_->client().wait_flushed());
    return ts.is_ok() ? ts.value() : kNoTimestamp;
  }

  /// The table's single region.
  std::shared_ptr<Region> region() {
    RegionServer& server = bed_->cluster().server(0);
    return server.region(server.region_names().front());
  }

  /// Timestamps of every version of `row` the region holds.
  std::vector<Timestamp> versions(const std::string& row) {
    std::vector<Timestamp> out;
    auto cells = region()->dump_cells();
    EXPECT_TRUE(cells.is_ok());
    for (const auto& c : cells.value()) {
      if (c.row == row) out.push_back(c.ts);
    }
    return out;
  }

  Timestamp published_floor() {
    return bed_->coord().get(kSnapshotFloorPath).value_or(kNoTimestamp);
  }

  /// Write `row` until `done()` holds after a write (each write flushes, so
  /// every few writes trigger an automatic compaction).
  template <typename Pred>
  bool churn_until(const std::string& row, Pred done) {
    const Micros deadline = now_micros() + seconds(20);
    for (int i = 0; now_micros() < deadline; ++i) {
      put(row, "churn" + std::to_string(i));
      if (done()) return true;
    }
    return false;
  }

  std::unique_ptr<Testbed> bed_;
};

bool contains(const std::vector<Timestamp>& v, Timestamp ts) {
  return std::find(v.begin(), v.end(), ts) != v.end();
}

TEST_F(SnapshotFloorTest, OpenSnapshotKeepsItsVersionUntilItEnds) {
  start(/*ignore_thresholds=*/false);
  const std::string hot = Testbed::row_key(1);
  const std::string cold = Testbed::row_key(2);
  Counter& pruned = global_counter("kv.compaction.versions_pruned");
  const std::int64_t pruned_before = pruned.get();

  const Timestamp v1 = put(hot, "v1");
  for (int i = 0; i < 4; ++i) put(cold, "old" + std::to_string(i));
  Transaction reader = bed_->client().begin("t");
  const Timestamp snapshot = reader.snapshot_ts();
  ASSERT_GE(snapshot, v1);
  ASSERT_EQ(reader.get(hot, "c").value().value_or(""), "v1");

  // Overwrite the hot row past the reader's snapshot until a compaction
  // has pruned below a floor the open snapshot pins.
  ASSERT_TRUE(churn_until(hot, [&] {
    return published_floor() >= snapshot && pruned.get() > pruned_before;
  })) << "floor " << published_floor() << ", snapshot " << snapshot;
  EXPECT_EQ(published_floor(), snapshot) << "the open snapshot pins the floor below TP";
  EXPECT_GE(bed_->rm().global_tp(), snapshot);
  EXPECT_TRUE(contains(versions(hot), v1));
  EXPECT_EQ(reader.get(hot, "c").value().value_or(""), "v1");
  EXPECT_EQ(reader.get(cold, "c").value().value_or(""), "old3");
  reader.abort();

  // The snapshot is gone: once the floor passes the next hot version, a
  // compaction drops v1.
  ASSERT_TRUE(churn_until(hot, [&] { return !contains(versions(hot), v1); }))
      << "floor " << published_floor();
  EXPECT_GT(published_floor(), snapshot);
}

TEST_F(SnapshotFloorTest, IgnoreThresholdsPublishesNoFloorAndPrunesNothing) {
  start(/*ignore_thresholds=*/true);
  const std::string hot = Testbed::row_key(1);
  Counter& pruned = global_counter("kv.compaction.versions_pruned");
  const std::int64_t pruned_before = pruned.get();
  for (int i = 0; i < 12; ++i) put(hot, "v" + std::to_string(i));
  EXPECT_LE(region()->store_file_count(), 4u) << "automatic compaction ran";
  EXPECT_FALSE(bed_->coord().get(kSnapshotFloorPath).has_value());
  EXPECT_EQ(pruned.get(), pruned_before);
  EXPECT_EQ(versions(hot).size(), 12u);
}

// Version GC under live faults: lost requests, lost acks and slow WAL syncs
// on every apply, and a region server crash whose regions are replayed
// while compactions keep pruning. An open snapshot still reads exactly what
// it read before the churn, and every committed value survives.
TEST(SnapshotFloorFaultTest, PruningUnderFaultsLosesNoReadableVersion) {
  constexpr int kRows = 40;
  constexpr int kWriters = 2;
  TestbedConfig cfg = fast_test_config(/*num_servers=*/3, /*num_clients=*/kWriters);
  cfg.cluster.server.memstore_flush_bytes = 256;
  cfg.cluster.server.compaction_file_threshold = 2;
  cfg.client.snapshot = SnapshotMode::kLatest;
  Testbed bed(cfg);
  ASSERT_TRUE(bed.start().is_ok());
  ASSERT_TRUE(bed.create_table("t", kRows, 4).is_ok());
  Counter& pruned = global_counter("kv.compaction.versions_pruned");

  std::mutex model_mutex;
  std::map<std::string, std::pair<Timestamp, std::string>> model;  // row -> newest commit
  auto write_round = [&](int client, const std::string& tag) {
    for (int i = 0; i < kRows; ++i) {
      const std::string row = Testbed::row_key(static_cast<std::uint64_t>(i));
      Transaction txn = bed.client(client).begin("t");
      txn.put(row, "c", tag);
      auto ts = txn.commit();
      if (!ts.is_ok()) continue;  // write-write conflict: not committed
      std::lock_guard lock(model_mutex);
      auto& slot = model[row];
      if (ts.value() > slot.first) slot = {ts.value(), tag};
    }
  };
  // Churn until `done` or the deadline, `kWriters` clients in parallel.
  auto churn = [&](const std::string& phase, const std::function<bool()>& done) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int c = 0; c < kWriters; ++c) {
      writers.emplace_back([&, c] {
        for (int round = 0; !stop.load(std::memory_order_acquire); ++round) {
          write_round(c, phase + "-" + std::to_string(c) + "-" + std::to_string(round));
        }
      });
    }
    const Micros deadline = now_micros() + seconds(20);
    while (!done() && now_micros() < deadline) sleep_micros(millis(5));
    stop.store(true, std::memory_order_release);
    for (auto& w : writers) w.join();
    return done();
  };

  // Two versions of every row below the reader's snapshot: the older one is
  // prunable once the floor reaches the snapshot, the newer one is what the
  // reader must keep seeing.
  write_round(0, "init0");
  write_round(0, "init1");
  ASSERT_TRUE(bed.client(0).wait_flushed());
  Transaction reader = bed.client(1).begin("t");
  std::map<std::string, std::string> seen;
  for (int i = 0; i < kRows; ++i) {
    const std::string row = Testbed::row_key(static_cast<std::uint64_t>(i));
    auto v = reader.get(row, "c");
    ASSERT_TRUE(v.is_ok() && v.value().has_value()) << row;
    seen[row] = *v.value();
  }

  {
    FaultRule rpc;  // lost requests and lost acks on every apply RPC
    rpc.op = FaultOp::kRpcApply;
    rpc.error_probability = 0.1;
    rpc.drop_response_probability = 0.05;
    bed.fault().add_rule(rpc);
    FaultRule slow_sync;  // the slow-disk gray failure
    slow_sync.op = FaultOp::kDfsSync;
    slow_sync.target = "/wal/";
    slow_sync.delay_probability = 0.5;
    slow_sync.delay = millis(1);
    bed.fault().add_rule(slow_sync);
  }

  // Phase 1: the open snapshot pins the floor; compactions prune below it.
  const std::int64_t pruned_start = pruned.get();
  ASSERT_TRUE(churn("pinned", [&] { return pruned.get() > pruned_start; }))
      << "no compaction pruned under faults (floor "
      << bed.coord().get(kSnapshotFloorPath).value_or(-1) << ")";
  EXPECT_LE(bed.coord().get(kSnapshotFloorPath).value_or(kMaxTimestamp), reader.snapshot_ts());
  for (const auto& [row, value] : seen) {
    auto v = reader.get(row, "c");
    ASSERT_TRUE(v.is_ok() && v.value().has_value()) << row;
    EXPECT_EQ(*v.value(), value) << row << " changed under the open snapshot";
  }
  reader.abort();

  // Phase 2: a server crash mid-churn; its regions are replayed above TP
  // while the other servers' compactions keep pruning.
  const std::int64_t pruned_phase2 = pruned.get();
  bool crashed = false;
  ASSERT_TRUE(churn("crash", [&] {
    if (!crashed) {
      bed.crash_server(2);
      crashed = true;
    }
    return bed.rm().stats().regions_recovered > 0 && pruned.get() > pruned_phase2;
  }));
  bed.wait_for_recovery();
  for (int c = 0; c < kWriters; ++c) ASSERT_TRUE(bed.client(c).wait_flushed(seconds(60)));
  bed.fault().clear_rules();

  Transaction audit = bed.client(0).begin("t");
  for (const auto& [row, expected] : model) {
    auto v = audit.get(row, "c");
    ASSERT_TRUE(v.is_ok()) << row;
    ASSERT_TRUE(v.value().has_value()) << "committed row lost: " << row;
    EXPECT_EQ(*v.value(), expected.second) << row;
  }
  audit.abort();
}

}  // namespace
}  // namespace tfr
