// WAL segment rolling and reclamation — the HBase behaviour that keeps the
// store's log bounded once memstore flushes have persisted the data.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/codec.h"
#include "src/common/metrics.h"
#include "src/kv/region_server.h"
#include "src/kv/wal.h"

namespace tfr {
namespace {

WalRecord rec(const std::string& region, Timestamp ts) {
  WalRecord r;
  r.region = region;
  r.commit_ts = ts;
  r.client_id = "c";
  r.cells.push_back(Cell{"row" + std::to_string(ts), "c", "v", ts, false});
  return r;
}

TEST(WalRollTest, RollOpensFreshSegment) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  EXPECT_EQ(wal->stats().live_segments, 2u);
  EXPECT_EQ(wal->stats().rolls, 1u);
  EXPECT_EQ(wal->current_segment_bytes(), 0u);
  // The closed segment is durable even though we never called sync().
  EXPECT_EQ(wal->synced_seq(), 1u);
}

TEST(WalRollTest, RecordsSpanSegmentsInOrder) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("a", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("b", 2)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("a", 3)).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());

  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[2].seq, 3u);

  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(grouped["a"].size(), 2u);
  ASSERT_EQ(grouped["b"].size(), 1u);
}

TEST(WalRollTest, TruncateRemovesOnlyObsoleteClosedSegments) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());  // seg 1: seq 1
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());  // seg 2: seq 2
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 3)).is_ok());  // seg 3 (open): seq 3

  // Nothing needed below seq 2: only segment 1 goes.
  EXPECT_EQ(wal->truncate_obsolete(2), 1u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
  // Everything below 100 obsolete, but the open segment always stays.
  EXPECT_EQ(wal->truncate_obsolete(100), 1u);
  EXPECT_EQ(wal->stats().live_segments, 1u);
  // The surviving records are still readable.
  ASSERT_TRUE(wal->sync().is_ok());
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 3u);
}

TEST(WalRollTest, TruncateIsNoopWhenEverythingStillNeeded) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  EXPECT_EQ(wal->truncate_obsolete(1), 0u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
}

TEST(WalRollTest, CrashLosesOnlyOpenSegmentTail) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());                // seq 1 durable via roll
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());   // open segment, not synced
  wal->crash();
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
}

TEST(WalRollTest, RegionServerRollsAndReclaimsAfterMemstoreFlush) {
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(100);
  cfg.session_ttl = seconds(1000);
  cfg.wal_sync_interval = seconds(100);  // drive rolling manually
  cfg.wal_segment_bytes = 512;           // tiny segments
  cfg.memstore_flush_bytes = 1u << 30;   // flush manually
  RegionServer server("rs1", dfs, coord, cfg);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());

  auto apply = [&](Timestamp ts) {
    ApplyRequest req;
    req.commit_ts = ts;
    req.client_id = "c";
    req.table = "t";
    req.mutations.push_back(Mutation{"row" + std::to_string(ts), "c",
                                     std::string(128, 'x'), false});
    ASSERT_TRUE(server.apply_writeset(req).is_ok());
  };

  for (Timestamp ts = 1; ts <= 20; ++ts) {
    apply(ts);
    server.maybe_roll_wal();
  }
  EXPECT_GT(server.wal().stats().rolls, 2u);
  // Un-flushed edits pin every segment: nothing reclaimed yet.
  EXPECT_EQ(server.wal().stats().segments_truncated, 0u);

  // Flush the memstore: the store file now carries the data, the old
  // segments become reclaimable.
  ASSERT_TRUE(server.region("t,")->flush_memstore().is_ok());
  server.maybe_roll_wal();
  EXPECT_GT(server.wal().stats().segments_truncated, 0u);
  EXPECT_LE(server.wal().stats().live_segments, 2u);

  // And reads still see everything.
  EXPECT_EQ(server.get("t", "row7", "c", 100).value()->value, std::string(128, 'x'));
  ASSERT_TRUE(server.shutdown().is_ok());
}

TEST(WalRollTest, SplitAfterCrashSeesAllLiveSegments) {
  // Data synced across several segments must all come back in recovery,
  // while reclaimed segments are (correctly) gone.
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 6; ++ts) {
    ASSERT_TRUE(wal->append(rec(ts % 2 ? "odd" : "even", ts)).is_ok());
    if (ts % 2 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  EXPECT_EQ(wal->truncate_obsolete(3), 1u);  // seqs 1-2 were "flushed"
  wal->crash();
  auto grouped = Wal::split(dfs, "/wal/rs1.log").value();
  std::set<std::uint64_t> seqs;
  for (const auto& [region, records] : grouped) {
    for (const auto& r : records) seqs.insert(r.seq);
  }
  EXPECT_EQ(seqs, (std::set<std::uint64_t>{3, 4, 5, 6}));
}

TEST(WalRollTest, TruncateStopsAtMasterFence) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->roll().is_ok());
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());
  // The master fenced this server's WAL directory: it is being recovered,
  // and the split must see every remaining segment.
  dfs.fence_prefix("/wal/rs1.log");
  EXPECT_EQ(wal->truncate_obsolete(100), 0u);
  EXPECT_EQ(wal->stats().live_segments, 2u);
  EXPECT_TRUE(dfs.exists("/wal/rs1.log.00000001"));
}

TEST(WalRollTest, ParallelSplitMatchesSequentialReadAndKeepsSeqOrder) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 40; ++ts) {
    ASSERT_TRUE(wal->append(rec(ts % 2 ? "odd" : "even", ts)).is_ok());
    if (ts % 8 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  ASSERT_TRUE(wal->sync().is_ok());
  Wal::SplitOptions opts;
  opts.workers = 4;
  auto grouped = Wal::split(dfs, "/wal/rs1.log", opts).value();
  ASSERT_EQ(grouped.size(), 2u);
  // Worker interleaving must not disturb per-region sequence order.
  std::size_t total = 0;
  for (const auto& [region, records] : grouped) {
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_LT(records[i - 1].seq, records[i].seq) << region;
    }
    total += records.size();
  }
  EXPECT_EQ(total, Wal::read_records(dfs, "/wal/rs1.log").value().size());
  EXPECT_EQ(total, 40u);
}

TEST(WalRollTest, SplitIsAllOrNothingOnCorruptSegment) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  for (Timestamp ts = 1; ts <= 4; ++ts) {
    ASSERT_TRUE(wal->append(rec("r", ts)).is_ok());
    if (ts % 2 == 0) ASSERT_TRUE(wal->roll().is_ok());
  }
  ASSERT_TRUE(wal->sync().is_ok());
  // Plant a segment whose frame decodes but fails its checksum: the split
  // must fail outright rather than hand back an edit map that silently
  // dropped one source segment's durable records.
  std::string bad;
  Encoder enc(&bad);
  enc.put_string("not a wal record");
  enc.put_u32(0);  // wrong checksum for the payload above
  ASSERT_TRUE(dfs.create("/wal/rs1.log.00000099").is_ok());
  ASSERT_TRUE(dfs.append("/wal/rs1.log.00000099", bad).is_ok());
  ASSERT_TRUE(dfs.sync("/wal/rs1.log.00000099").is_ok());
  auto split = Wal::split(dfs, "/wal/rs1.log");
  ASSERT_FALSE(split.is_ok());
  EXPECT_NE(split.status().to_string().find("checksum"), std::string::npos)
      << split.status();
}

/// A region server whose WAL is driven by hand: no periodic heartbeat or
/// sync, no size-triggered memstore flush.
RegionServerConfig manual_wal_config() {
  RegionServerConfig cfg;
  cfg.heartbeat_interval = seconds(100);
  cfg.session_ttl = seconds(1000);
  cfg.wal_sync_interval = seconds(100);
  cfg.memstore_flush_bytes = 1u << 30;
  return cfg;
}

void apply_row(RegionServer& server, const std::string& row, Timestamp ts) {
  ApplyRequest req;
  req.commit_ts = ts;
  req.client_id = "c";
  req.table = "t";
  req.mutations.push_back(Mutation{row, "c", "v" + std::to_string(ts), false});
  ASSERT_TRUE(server.apply_writeset(req).is_ok());
}

std::size_t split_record_count(Dfs& dfs, const std::string& wal_path) {
  const auto grouped = Wal::split(dfs, wal_path).value();
  std::size_t n = 0;
  for (const auto& [region, records] : grouped) n += records.size();
  return n;
}

TEST(WalRollTest, HeartbeatDiscardsFullyFlushedOpenSegment) {
  // After every memstore is flushed, the open segment holds nothing a split
  // needs: one heartbeat tick replaces it, and a failover split of this
  // server reads no records.
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServer server("rs1", dfs, coord, manual_wal_config());
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", "m"}, {}).is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "m", ""}, {}).is_ok());
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    apply_row(server, (ts % 2 ? "a" : "x") + std::to_string(ts), ts);
  }
  ASSERT_TRUE(server.persist_wal().is_ok());
  ASSERT_EQ(split_record_count(dfs, server.wal_path()), 10u);

  for (const auto& name : server.region_names()) {
    ASSERT_TRUE(server.region(name)->flush_memstore().is_ok());
  }
  Counter& discards = global_counter("kv.wal_open_discards");
  const std::int64_t discards_before = discards.get();
  server.heartbeat_now();
  EXPECT_EQ(discards.get() - discards_before, 1);
  EXPECT_EQ(server.wal().stats().live_segments, 1u);
  EXPECT_EQ(split_record_count(dfs, server.wal_path()), 0u);

  // The fresh segment takes new writes, and they survive a crash once
  // synced.
  apply_row(server, "b", 11);
  ASSERT_TRUE(server.persist_wal().is_ok());
  server.crash();
  EXPECT_EQ(split_record_count(dfs, server.wal_path()), 1u);
}

TEST(WalRollTest, HeartbeatKeepsOpenSegmentWithUnflushedRegion) {
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServer server("rs1", dfs, coord, manual_wal_config());
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", "m"}, {}).is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "m", ""}, {}).is_ok());
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    apply_row(server, (ts % 2 ? "a" : "x") + std::to_string(ts), ts);
  }
  ASSERT_TRUE(server.persist_wal().is_ok());
  // Flush only the left region: the right one's edits still live only in
  // its memstore and this segment.
  ASSERT_TRUE(server.region("t,")->flush_memstore().is_ok());
  server.heartbeat_now();
  server.crash();
  auto grouped = Wal::split(dfs, server.wal_path()).value();
  EXPECT_EQ(grouped["t,m"].size(), 5u) << "un-flushed edits must stay in the WAL";
}

TEST(WalRollTest, AppendNotYetAppliedSurvivesRollAndTruncation) {
  // The apply path appends a record (assigning its seq) and only then
  // applies it to the memstore. In between, the region's memstore can be
  // empty, so its min_unflushed_wal_seq says nothing about the record; a
  // roll and truncation in that window must still keep the segment that
  // holds it, or an acked edit ends up only in a memstore.
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServerConfig cfg = manual_wal_config();
  cfg.wal_segment_bytes = 1;  // every maybe_roll_wal rolls
  RegionServer server("rs1", dfs, coord, cfg);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());

  // The apply path's first step, by hand: append, not yet applied.
  auto seq = server.wal().append(rec("t,", 7));
  ASSERT_TRUE(seq.is_ok());
  server.maybe_roll_wal();  // rolls (syncing the record), then truncates
  server.heartbeat_now();   // and offers the open segment for discard
  server.crash();

  std::set<std::uint64_t> seqs;
  const auto records = Wal::read_records(dfs, server.wal_path()).value();
  for (const auto& r : records) seqs.insert(r.seq);
  EXPECT_EQ(seqs.count(seq.value()), 1u) << "in-flight record reclaimed";
}

TEST(WalRollTest, AppendNotYetAppliedKeepsOpenSegmentOnHeartbeat) {
  // The same window against the open-segment discard: the region's
  // memstore is empty and the only record is in flight.
  Dfs dfs{DfsConfig{}};
  Coord coord(seconds(10));
  RegionServer server("rs1", dfs, coord, manual_wal_config());
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.open_region(RegionDescriptor{"t", "", ""}, {}).is_ok());
  auto seq = server.wal().append(rec("t,", 7));
  ASSERT_TRUE(seq.is_ok());
  ASSERT_TRUE(server.persist_wal().is_ok());
  server.heartbeat_now();
  server.crash();
  EXPECT_EQ(split_record_count(dfs, server.wal_path()), 1u);
}

TEST(WalRollTest, FirstUnappliedSeqTracksInFlightAppends) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  EXPECT_EQ(wal->first_unapplied_seq(), 1u) << "nothing in flight: the next seq";
  const std::uint64_t first = wal->append(rec("r", 1)).value();
  const std::uint64_t second = wal->append(rec("r", 2)).value();
  EXPECT_EQ(wal->first_unapplied_seq(), first);
  wal->applied(second);  // applies finish out of order
  EXPECT_EQ(wal->first_unapplied_seq(), first);
  wal->applied(first);
  EXPECT_EQ(wal->first_unapplied_seq(), second + 1);
}

TEST(WalRollTest, DiscardOpenSegmentOnlyWhenEveryRecordIsBelowTheBound) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->append(rec("r", 2)).is_ok());
  EXPECT_FALSE(wal->discard_open_segment(2)) << "seq 2 is still needed";
  EXPECT_TRUE(dfs.exists("/wal/rs1.log.00000001"));
  EXPECT_TRUE(wal->discard_open_segment(3));
  EXPECT_FALSE(dfs.exists("/wal/rs1.log.00000001"));
  EXPECT_EQ(wal->stats().live_segments, 1u);
  EXPECT_EQ(wal->synced_seq(), 2u) << "discarded records need no sync";
  ASSERT_TRUE(wal->append(rec("r", 3)).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  auto records = Wal::read_records(dfs, "/wal/rs1.log").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 3u);
  // Once the fresh segment is discarded too, it is empty and stays.
  EXPECT_TRUE(wal->discard_open_segment(4));
  EXPECT_FALSE(wal->discard_open_segment(100)) << "an empty open segment stays";
}

TEST(WalRollTest, DiscardOpenSegmentStopsAtMasterFence) {
  Dfs dfs{DfsConfig{}};
  auto wal = Wal::create(dfs, "/wal/rs1.log").value();
  ASSERT_TRUE(wal->append(rec("r", 1)).is_ok());
  ASSERT_TRUE(wal->sync().is_ok());
  dfs.fence_prefix("/wal/rs1.log");
  EXPECT_FALSE(wal->discard_open_segment(100));
  EXPECT_EQ(Wal::read_records(dfs, "/wal/rs1.log").value().size(), 1u);
}

}  // namespace
}  // namespace tfr
