// TxnLog — the transaction manager's recovery log (§2.2). A transaction is
// *committed* the moment its write-set, commit timestamp, and client id are
// durable here; everything downstream (flush to region servers, WAL sync,
// memstore flush) happens after commit and is covered by this log until the
// global persist threshold TP passes the transaction.
//
// The paper's logging sub-component "supports group commit, has access to
// its own high performance stable storage, and can be distributed across
// several nodes should one logging node not be sufficient" (§4.1). The
// first two are implemented:
//
//   * group commit — appenders block until their record is durable; a
//     dedicated appender thread batches all waiting records into a single
//     stable-storage write, charging the sync latency once per batch. When
//     it wakes to a queue shallower than the recent batch size it holds the
//     write for a short accumulation window so stragglers join the batch;
//   * configurable stable-storage latency.
//
// Storage is organised as commit-timestamp-ordered *segments*
// (DESIGN.md §8). The active segment absorbs appends until it reaches
// `segment_records`, then seals and a fresh one opens. Truncation
// (Algorithm 4) is logical: `truncate_through(TP)` advances a floor that
// fetch filters against, so record-granular semantics are exact; physical
// reclamation is segment-granular and asynchronous — a background GC pass
// deletes whole sealed segments whose every record sits at or below the
// floor. Segment max-timestamps form a monotone index, so fetch
// binary-searches to the first segment that can contain a survivor instead
// of scanning all retained records.
//
// It also provides the recovery-manager interface: fetch committed
// write-sets after a threshold (optionally for one client), and truncate
// below the global checkpoint TP (§3.2: "transactions with timestamp
// T < TP may be truncated from the recovery log").
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/latency.h"
#include "src/common/status.h"
#include "src/common/threading.h"
#include "src/kv/types.h"

namespace tfr {

struct TxnLogConfig {
  Micros sync_latency = 0;  ///< stable-storage write per group-commit batch
  Micros sync_jitter = 0;

  /// Group-commit accumulation window: when the appender wakes to a queue
  /// shallower than the recent batch size, it holds the stable-storage write
  /// — for at most half the observed sync latency and at most this cap — so
  /// stragglers join the batch instead of paying a sync of their own. Batch
  /// sizes and sync waits are exported as the `log.batch_size` /
  /// `log.sync_wait` global histograms.
  Micros max_group_wait = millis(2);

  /// Records per segment before the active segment seals. Small enough
  /// that the retained suffix above TP spans few partially-dead segments,
  /// large enough that the segment index stays short.
  std::size_t segment_records = 512;
  /// Background GC cadence; 0 disables the thread (physical reclamation then
  /// happens only inline on truncate_through / gc_now, which tests use for
  /// determinism).
  Micros gc_interval = millis(20);
};

struct TxnLogStats {
  std::int64_t appends = 0;
  std::int64_t batches = 0;
  std::int64_t truncated = 0;     ///< records logically below the floor
  std::int64_t live_records = 0;  ///< records above the floor (replayable)
  std::int64_t live_bytes = 0;
  std::int64_t group_waits = 0;  ///< batches that held for the accumulation window
  // Physical (segment) view: retained = still occupying memory, whether or
  // not logically truncated; GC moves retained -> reclaimed a whole sealed
  // segment at a time.
  std::int64_t segments = 0;          ///< live segments
  std::int64_t retained_records = 0;  ///< records still held in segments
  std::int64_t retained_bytes = 0;
  std::int64_t gc_segments = 0;        ///< sealed segments physically deleted
  std::int64_t gc_bytes_reclaimed = 0;
};

class TxnLog {
 public:
  explicit TxnLog(TxnLogConfig config);
  ~TxnLog();

  TxnLog(const TxnLog&) = delete;
  TxnLog& operator=(const TxnLog&) = delete;

  /// Append a committed write-set; blocks until it is durable (group
  /// commit). `ws.commit_ts` must be set and unique.
  TFR_BLOCKING Status append(WriteSet ws);

  /// All durable write-sets with commit_ts > after_ts (and above the
  /// truncation floor), in commit order.
  std::vector<WriteSet> fetch_after(Timestamp after_ts) const;

  /// The durable write-sets committed by `client_id` after `after_ts`
  /// (Algorithm 2: fetchlogs(c, TF(c))).
  std::vector<WriteSet> fetch_client_after(const std::string& client_id,
                                           Timestamp after_ts) const;

  /// Checkpoint: logically drop every record with commit_ts <= up_to. Safe
  /// once the global persist threshold TP has passed them. Physical
  /// segment reclamation happens on the next GC pass.
  void truncate_through(Timestamp up_to);

  /// Run one synchronous GC pass: seal oversized active segments and delete
  /// sealed segments entirely at or below the truncation floor. The
  /// background thread calls this on `gc_interval`; tests call it directly
  /// for deterministic reclamation.
  void gc_now();

  /// Highest commit timestamp ever physically deleted by segment GC
  /// (kNoTimestamp before the first reclaim). The cascading-failure soak
  /// checks this never overtakes a live recovery floor.
  Timestamp gc_watermark() const;

  TxnLogStats stats() const;

 private:
  struct Pending {
    WriteSet ws;
    bool done = false;
  };

  /// One commit-timestamp-ordered slab of records. `index_ts` is the
  /// running max of commit timestamps across this and all earlier segments
  /// — monotone by construction even though appends arrive out of commit-ts
  /// order, so the segment deque can be binary-searched by threshold.
  /// `max_ts` is the segment's own max, the exact GC-eligibility bound.
  struct Segment {
    std::map<Timestamp, WriteSet> records;
    Timestamp max_ts = kNoTimestamp;
    Timestamp index_ts = kNoTimestamp;
    std::size_t bytes = 0;
    bool sealed = false;
  };

  void appender_loop();
  void insert_locked(WriteSet ws) TFR_REQUIRES(mutex_);
  /// Segments that can hold a record with commit_ts > after: the suffix
  /// starting at the first segment whose index_ts exceeds it.
  std::deque<Segment>::const_iterator first_segment_after(Timestamp after) const
      TFR_REQUIRES(mutex_);
  /// fetch_after / fetch_client_after; a null `client_id` matches all.
  std::vector<WriteSet> collect_after(Timestamp after_ts, const std::string* client_id) const;
  void gc_locked() TFR_REQUIRES(mutex_);
  void export_gauges_locked() TFR_REQUIRES(mutex_);

  TxnLogConfig config_;
  LatencyModel sync_model_;  // touched only by the appender thread

  mutable RankedMutex<LockRank::kTxnLog> mutex_{"txn_log"};  // queue + segments + stats
  CondVar work_cv_;  // the appender waits for queued records
  CondVar done_cv_;  // clients wait for durability
  bool stop_ TFR_GUARDED_BY(mutex_) = false;
  std::vector<std::shared_ptr<Pending>> queue_ TFR_GUARDED_BY(mutex_);
  // Oldest-first; back() is the active segment (never GC'd).
  std::deque<Segment> segments_ TFR_GUARDED_BY(mutex_);
  // Exponential averages of the observed sync latency and batch size that
  // size the accumulation window.
  double ewma_sync_us_ TFR_GUARDED_BY(mutex_) = 0;
  double ewma_batch_ TFR_GUARDED_BY(mutex_) = 1;
  TxnLogStats stats_ TFR_GUARDED_BY(mutex_);
  Timestamp floor_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;  // truncate_through high-water
  Timestamp gc_watermark_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;

  std::thread appender_;
  PeriodicTask gc_task_;
};

}  // namespace tfr
