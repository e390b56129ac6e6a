#include "src/txn/txn_log.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/common/metrics.h"

namespace tfr {
namespace {

WriteSet make_ws(Timestamp ts, const std::string& client = "c1") {
  WriteSet ws;
  ws.txn_id = static_cast<std::uint64_t>(ts);
  ws.client_id = client;
  ws.commit_ts = ts;
  ws.table = "t";
  ws.mutations.push_back(Mutation{"row" + std::to_string(ts), "c", "v", false});
  return ws;
}

TEST(TxnLogTest, AppendIsDurableOnReturn) {
  TxnLog log(TxnLogConfig{});
  ASSERT_TRUE(log.append(make_ws(1)).is_ok());
  auto fetched = log.fetch_after(0);
  ASSERT_EQ(fetched.size(), 1u);
  EXPECT_EQ(fetched[0].commit_ts, 1);
}

TEST(TxnLogTest, AppendWithoutTimestampRejected) {
  TxnLog log(TxnLogConfig{});
  WriteSet ws = make_ws(1);
  ws.commit_ts = kNoTimestamp;
  EXPECT_EQ(log.append(ws).code(), Code::kInvalidArgument);
}

TEST(TxnLogTest, FetchAfterExcludesThreshold) {
  TxnLog log(TxnLogConfig{});
  for (Timestamp ts = 1; ts <= 5; ++ts) ASSERT_TRUE(log.append(make_ws(ts)).is_ok());
  auto fetched = log.fetch_after(3);
  ASSERT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched[0].commit_ts, 4);
  EXPECT_EQ(fetched[1].commit_ts, 5);
}

TEST(TxnLogTest, FetchClientFilters) {
  TxnLog log(TxnLogConfig{});
  ASSERT_TRUE(log.append(make_ws(1, "alice")).is_ok());
  ASSERT_TRUE(log.append(make_ws(2, "bob")).is_ok());
  ASSERT_TRUE(log.append(make_ws(3, "alice")).is_ok());
  auto fetched = log.fetch_client_after("alice", 0);
  ASSERT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched[0].commit_ts, 1);
  EXPECT_EQ(fetched[1].commit_ts, 3);
  EXPECT_EQ(log.fetch_client_after("alice", 1).size(), 1u);
  EXPECT_TRUE(log.fetch_client_after("carol", 0).empty());
  // Many interleaved clients: each one's records, and only those, in commit
  // order, before and after a truncation.
  for (Timestamp ts = 4; ts <= 40; ++ts) {
    ASSERT_TRUE(log.append(make_ws(ts, "client-" + std::to_string(ts % 7))).is_ok());
  }
  auto client3 = log.fetch_client_after("client-3", 0);
  ASSERT_EQ(client3.size(), 5u);  // 10, 17, 24, 31, 38
  for (std::size_t i = 0; i < client3.size(); ++i) {
    EXPECT_EQ(client3[i].client_id, "client-3");
    EXPECT_EQ(client3[i].commit_ts, static_cast<Timestamp>(10 + 7 * i));
  }
  log.truncate_through(20);
  EXPECT_EQ(log.fetch_client_after("client-3", 0).size(), 3u);
  EXPECT_EQ(log.fetch_after(0).size(), 20u);
}

TEST(TxnLogTest, TruncateDropsCheckpointedPrefix) {
  TxnLog log(TxnLogConfig{});
  for (Timestamp ts = 1; ts <= 10; ++ts) ASSERT_TRUE(log.append(make_ws(ts)).is_ok());
  log.truncate_through(7);
  auto remaining = log.fetch_after(0);
  ASSERT_EQ(remaining.size(), 3u);
  EXPECT_EQ(remaining[0].commit_ts, 8);
  const auto stats = log.stats();
  EXPECT_EQ(stats.truncated, 7);
  EXPECT_EQ(stats.live_records, 3);
}

TEST(TxnLogTest, TruncateIsIdempotent) {
  TxnLog log(TxnLogConfig{});
  for (Timestamp ts = 1; ts <= 3; ++ts) ASSERT_TRUE(log.append(make_ws(ts)).is_ok());
  log.truncate_through(2);
  log.truncate_through(2);
  log.truncate_through(1);  // lower checkpoint: nothing more to drop
  EXPECT_EQ(log.fetch_after(0).size(), 1u);
}

TEST(TxnLogTest, GroupCommitBatchesConcurrentAppends) {
  TxnLogConfig cfg;
  cfg.sync_latency = millis(5);  // make batching observable
  TxnLog log(cfg);
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  const Micros start = now_micros();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      ASSERT_TRUE(log.append(make_ws(t + 1)).is_ok());
    });
  }
  for (auto& t : threads) t.join();
  const Micros elapsed = now_micros() - start;
  const auto stats = log.stats();
  EXPECT_EQ(stats.appends, kThreads);
  // 16 sequential syncs would take >= 80ms; group commit needs only a few
  // batches.
  EXPECT_LT(stats.batches, kThreads);
  EXPECT_LT(elapsed, millis(60));
}

TEST(TxnLogTest, LiveBytesTracksPayload) {
  TxnLog log(TxnLogConfig{});
  ASSERT_TRUE(log.append(make_ws(1)).is_ok());
  const auto bytes_one = log.stats().live_bytes;
  EXPECT_GT(bytes_one, 0);
  ASSERT_TRUE(log.append(make_ws(2)).is_ok());
  EXPECT_GT(log.stats().live_bytes, bytes_one);
  log.truncate_through(2);
  EXPECT_EQ(log.stats().live_bytes, 0);
}

TEST(TxnLogTest, AdaptiveGroupCommitChargesSyncOncePerBatch) {
  TxnLogConfig cfg;
  cfg.sync_latency = millis(4);
  cfg.sync_jitter = 0;
  cfg.max_group_wait = millis(2);
  reset_global_histograms();
  TxnLog log(cfg);
  constexpr int kThreads = 12;
  constexpr int kPerThread = 4;
  std::vector<std::thread> threads;
  const Micros start = now_micros();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(log.append(make_ws(t * kPerThread + i + 1)).is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const Micros elapsed = now_micros() - start;
  const auto stats = log.stats();
  EXPECT_EQ(stats.appends, kThreads * kPerThread);
  EXPECT_LT(stats.batches, stats.appends) << "concurrent appends never batched";
  // The stable-storage sync is charged once per batch, not once per append:
  // wall clock is bounded by batches x (sync + accumulation window) plus
  // scheduling slack, far below appends x sync (192 ms here).
  EXPECT_LT(elapsed,
            stats.batches * (cfg.sync_latency + cfg.max_group_wait) + millis(40));
  // Group commit feeds the shared histograms: one batch-size sample per
  // batch.
  for (const auto& [name, hist] : global_histogram_snapshot()) {
    if (name == "log.batch_size") {
      EXPECT_GE(hist->count(), static_cast<std::uint64_t>(stats.batches));
    }
  }
}

TEST(TxnLogTest, RecoveryScanOrderSurvivesBatchBoundaries) {
  // A recovery scan must see commit-timestamp order no matter how the
  // concurrent appends were grouped into batches.
  TxnLogConfig cfg;
  cfg.sync_latency = millis(2);
  TxnLog log(cfg);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Interleaved timestamp assignment across threads: batch membership
        // and commit order are fully decoupled.
        ASSERT_TRUE(log.append(make_ws(i * kThreads + t + 1,
                                       "client-" + std::to_string(t % 3)))
                        .is_ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto fetched = log.fetch_after(0);
  ASSERT_EQ(fetched.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < fetched.size(); ++i) {
    EXPECT_LT(fetched[i - 1].commit_ts, fetched[i].commit_ts)
        << "recovery scan out of commit order at index " << i;
  }
}

TEST(TxnLogTest, FetchAfterTruncateNeverReturnsTruncatedRecord) {
  // Regression for the segment rebuild: a truncated record must be invisible
  // to every fetch shape — below, at, and across segment boundaries, before
  // and after physical GC — even when the caller's threshold is older than
  // the truncation floor.
  TxnLogConfig cfg;
  cfg.segment_records = 8;  // truncation lands mid-segment and across seals
  cfg.gc_interval = 0;      // physical reclamation only via gc_now()
  TxnLog log(cfg);
  for (Timestamp ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(log.append(make_ws(ts, "client-" + std::to_string(ts % 5))).is_ok());
  }
  log.truncate_through(33);
  for (Timestamp after : {Timestamp{0}, Timestamp{10}, Timestamp{33}, Timestamp{40}}) {
    for (const auto& ws : log.fetch_after(after)) {
      EXPECT_GT(ws.commit_ts, 33) << "truncated record leaked at threshold " << after;
      EXPECT_GT(ws.commit_ts, after);
    }
  }
  EXPECT_EQ(log.fetch_after(0).size(), 17u);
  for (const auto& ws : log.fetch_client_after("client-2", 0)) {
    EXPECT_GT(ws.commit_ts, 33);
  }
  log.gc_now();  // physical deletion must not change what fetch returns
  EXPECT_EQ(log.fetch_after(0).size(), 17u);
  EXPECT_EQ(log.fetch_after(0).front().commit_ts, 34);
  const auto stats = log.stats();
  EXPECT_EQ(stats.truncated, 33);
  EXPECT_EQ(stats.live_records, 17);
  EXPECT_GT(stats.gc_segments, 0) << "no sealed segment became GC-eligible";
  EXPECT_LE(log.gc_watermark(), 33);
}

TEST(TxnLogTest, SegmentGcReclaimsWholeSegmentsAndExportsMetrics) {
  TxnLogConfig cfg;
  cfg.segment_records = 10;
  cfg.gc_interval = 0;
  TxnLog log(cfg);
  for (Timestamp ts = 1; ts <= 45; ++ts) ASSERT_TRUE(log.append(make_ws(ts)).is_ok());
  auto stats = log.stats();
  EXPECT_EQ(stats.segments, 5);  // 4 sealed + the active tail
  EXPECT_EQ(stats.retained_records, 45);
  // Logical truncation alone retains the records; GC reclaims whole sealed
  // segments at or below the floor — ts <= 25 spans two full segments
  // (1..10, 11..20) while 21..25 stays pinned by its segment's survivors.
  log.truncate_through(25);
  stats = log.stats();
  EXPECT_EQ(stats.live_records, 20);
  EXPECT_EQ(stats.segments, 3);
  EXPECT_EQ(stats.gc_segments, 2);
  EXPECT_EQ(stats.retained_records, 25);
  EXPECT_GT(stats.gc_bytes_reclaimed, 0);
  EXPECT_EQ(log.gc_watermark(), 20);
  for (const auto& [name, value] : global_gauge_snapshot()) {
    if (name == "log.segments") EXPECT_EQ(value, stats.segments);
    if (name == "log.retained_txns") EXPECT_EQ(value, stats.retained_records);
  }
}

TEST(TxnLogTest, RetainedRecordsPlateauUnderSustainedCommits) {
  // The acceptance property behind Algorithm 4: with checkpointing keeping
  // pace, physical retention is bounded by TP lag plus one partially-dead
  // segment — it must not grow with total commits.
  TxnLogConfig cfg;
  cfg.segment_records = 16;
  cfg.gc_interval = 0;
  TxnLog log(cfg);
  constexpr Timestamp kTotal = 2000;
  constexpr Timestamp kTpLag = 100;  // checkpoint trails the newest commit by this
  std::int64_t max_retained = 0;
  for (Timestamp ts = 1; ts <= kTotal; ++ts) {
    ASSERT_TRUE(log.append(make_ws(ts, "client-" + std::to_string(ts % 7))).is_ok());
    if (ts % 50 == 0) {
      log.truncate_through(ts - kTpLag);
      log.gc_now();
      max_retained = std::max(max_retained, log.stats().retained_records);
    }
  }
  const auto stats = log.stats();
  // Bound: TP lag + checkpoint cadence + a partially-dead segment and the
  // active one. Far below kTotal — a flat map would have retained all 2000.
  const std::int64_t bound = kTpLag + 50 + static_cast<std::int64_t>(cfg.segment_records) * 2;
  EXPECT_LE(max_retained, bound);
  EXPECT_LE(stats.segments, 2 * ((bound / static_cast<std::int64_t>(cfg.segment_records)) + 2));
  EXPECT_GT(stats.gc_segments, 50);
  EXPECT_EQ(stats.appends, kTotal);
}

TEST(TxnLogTest, FetchReturnsCommitOrderRegardlessOfAppendOrder) {
  TxnLog log(TxnLogConfig{});
  ASSERT_TRUE(log.append(make_ws(3)).is_ok());
  ASSERT_TRUE(log.append(make_ws(1)).is_ok());
  ASSERT_TRUE(log.append(make_ws(2)).is_ok());
  auto fetched = log.fetch_after(0);
  ASSERT_EQ(fetched.size(), 3u);
  EXPECT_EQ(fetched[0].commit_ts, 1);
  EXPECT_EQ(fetched[2].commit_ts, 3);
}

}  // namespace
}  // namespace tfr
