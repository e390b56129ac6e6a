// The per-region-server write-ahead log (§2.1). Every incoming update is
// appended here before being applied to the memstore. The paper's key
// configuration is to *disable the synchronous flush* of this log: appends
// go to the DFS write pipeline immediately but are only made durable by an
// asynchronous periodic sync — trading the per-update durability of stock
// HBase for latency, because the TM recovery log already guarantees
// durability of committed transactions.
//
// Like HBase's, the log is a sequence of *segments*: roll() closes the
// current segment and opens a fresh one, and truncate_obsolete() deletes
// closed segments whose records have all been superseded by memstore
// flushes (their data now lives in store files); discard_open_segment()
// does the same for the open segment once all of it is flushed, so the
// split of an idle server reads nothing. After a server failure,
// the durable prefix of every live segment is split by region (Wal::split)
// and replayed into freshly assigned regions — HBase's internal recovery.
// Updates that were only in the in-memory tail are gone; those are
// precisely the ones the recovery manager replays from the TM log.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/dfs/dfs.h"
#include "src/kv/types.h"

namespace tfr {

/// One WAL record: the slice of a transaction's write-set that falls in one
/// region, stamped with the transaction's commit timestamp and the writer's
/// ownership epoch for the region (the fencing token; 0 = unfenced).
struct WalRecord {
  std::string region;  // region name
  std::uint64_t seq = 0;
  std::uint64_t txn_id = 0;
  std::string client_id;
  Timestamp commit_ts = kNoTimestamp;
  std::uint64_t epoch = 0;
  std::vector<Cell> cells;

  std::string encode() const;
  static Result<WalRecord> decode(std::string_view data);
};

struct WalStats {
  std::uint64_t appended_records = 0;
  std::uint64_t synced_records = 0;
  std::uint64_t syncs = 0;
  std::uint64_t rolls = 0;
  std::uint64_t segments_truncated = 0;
  std::size_t live_segments = 0;
};

class Wal {
 public:
  /// Creates the first DFS-backed segment at `<base_path>.00000001`.
  static Result<std::unique_ptr<Wal>> create(Dfs& dfs, std::string base_path);

  /// Append a record to the DFS write pipeline (NOT yet durable). Assigns
  /// and returns the record's sequence number. With an epoch registry
  /// attached, a record bearing a stale epoch for its region is rejected
  /// with WrongEpoch before anything reaches the DFS (the fencing-token
  /// check; counted in kv.epoch_rejects).
  ///
  /// The record is then *in flight* until the caller reports it with
  /// applied(): first_unapplied_seq() stays at or below its seq, so no
  /// truncation bound computed from it can pass a record whose memstore
  /// apply has not happened yet.
  Result<std::uint64_t> append(WalRecord record);

  /// The record appended as `seq` has been applied to its memstore, or its
  /// apply was abandoned (the write is unacked). Call exactly once per
  /// successful append.
  void applied(std::uint64_t seq);

  /// The lowest sequence number appended but not yet reported applied, or
  /// the next sequence number if none is in flight. Every record below it
  /// has finished its memstore apply.
  std::uint64_t first_unapplied_seq() const;

  /// Attach the cluster's epoch registry (nullptr to detach). Not
  /// synchronized with in-flight appends: install before traffic starts.
  void set_epoch_registry(const EpochRegistry* epochs) { epochs_ = epochs; }

  /// Force everything appended so far to be durable (one DFS sync of the
  /// current segment; closed segments are already durable). This is what
  /// Algorithm 3's persist step and the synchronous-persistence mode of
  /// Figure 2(a) call.
  TFR_BLOCKING Status sync();

  /// Close the current segment (sync it) and open a fresh one. HBase rolls
  /// when a segment exceeds a size threshold so old segments can later be
  /// reclaimed.
  Status roll();

  /// Delete closed segments whose records all have seq < `min_needed_seq`
  /// (i.e. every region's un-flushed edits start at or after it). Returns
  /// the number of segments removed. If the DFS rejects the delete with
  /// WrongEpoch the WAL directory has been fenced by the master — this
  /// server is dead to the cluster and must leave its segments for the
  /// split (counted in kv.wal_truncate_fenced).
  std::size_t truncate_obsolete(std::uint64_t min_needed_seq);

  /// Drop the open segment when it holds records and every one of them has
  /// seq < `min_needed_seq` (all flushed to store files): a fresh segment
  /// replaces it and the old one is deleted. No sync is needed, since store
  /// files hold everything it carried; synced_seq() advances past it. Waits
  /// for an in-progress sync only when the segment is discardable. Returns
  /// true if the segment was dropped (counted in kv.wal_open_discards).
  /// A WrongEpoch from the DFS leaves the segment in place, as in
  /// truncate_obsolete.
  bool discard_open_segment(std::uint64_t min_needed_seq);

  /// Sequence number through which records are durable.
  std::uint64_t synced_seq() const { return synced_seq_.load(std::memory_order_acquire); }
  std::uint64_t appended_seq() const { return next_seq_.load(std::memory_order_acquire) - 1; }

  /// Bytes appended to the current (open) segment — the roll trigger.
  std::uint64_t current_segment_bytes() const;

  /// The writer crashed: the un-synced tail of the open segment is lost.
  void crash();

  WalStats stats() const;
  const std::string& base_path() const { return base_path_; }

  /// Read all durable records of a (possibly crashed) server's WAL, across
  /// all of its live segments, in sequence order.
  static Result<std::vector<WalRecord>> read_records(Dfs& dfs, const std::string& base_path);

  /// Tuning for the parallel split below.
  struct SplitOptions {
    int workers = 4;               ///< worker threads (capped by segment count)
    int attempts_per_segment = 8;  ///< bounded retries of transient read errors
    Micros backoff_base = millis(1);
    Micros backoff_cap = millis(8);
  };

  /// HBase log splitting: group the durable records of a failed server's
  /// WAL by region, in sequence order. Fans out per source segment across a
  /// worker pool; each worker retries transient (Unavailable) read errors a
  /// bounded number of times. All-or-nothing: if any segment cannot be
  /// decoded the whole split fails — a partial edit map silently loses
  /// durable edits for the regions whose segment was dropped.
  static Result<std::map<std::string, std::vector<WalRecord>>> split(
      Dfs& dfs, const std::string& base_path, const SplitOptions& options);
  static Result<std::map<std::string, std::vector<WalRecord>>> split(Dfs& dfs,
                                                                     const std::string& base_path);

 private:
  Wal(Dfs& dfs, std::string base_path) : dfs_(&dfs), base_path_(std::move(base_path)) {}

  static std::string segment_path(const std::string& base, std::uint64_t index);
  Status open_segment_locked() TFR_REQUIRES(mutex_);
  bool open_segment_obsolete_locked(std::uint64_t min_needed_seq) const TFR_REQUIRES(mutex_);

  struct Segment {
    std::string path;
    std::uint64_t first_seq = 0;  // first seq appended to it (0 if none yet)
    std::uint64_t last_seq = 0;   // last seq appended to it
    std::uint64_t bytes = 0;
  };

  Dfs* dfs_;
  const EpochRegistry* epochs_ = nullptr;
  std::string base_path_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> synced_seq_{0};

  // Guards segments_ and appends (record framing).
  mutable RankedMutex<LockRank::kWal> mutex_{"wal"};
  std::vector<Segment> segments_ TFR_GUARDED_BY(mutex_);  // back() is the open segment
  std::set<std::uint64_t> in_flight_ TFR_GUARDED_BY(mutex_);  // appended, not yet applied
  std::uint64_t next_segment_index_ TFR_GUARDED_BY(mutex_) = 1;
  std::uint64_t rolls_ TFR_GUARDED_BY(mutex_) = 0;
  std::uint64_t truncated_ TFR_GUARDED_BY(mutex_) = 0;

  // Serializes syncs; appends proceed concurrently. Outer of mutex_.
  RankedMutex<LockRank::kWalSync> sync_mutex_{"wal_sync"};
  std::atomic<std::uint64_t> sync_count_{0};
};

}  // namespace tfr
