// TxnManager — the independent transaction management component (§2.2).
// Provides:
//
//  * a timestamp oracle issuing monotonically increasing commit timestamps
//    that define the serialization order;
//  * snapshot-isolation concurrency control via a first-committer-wins
//    write-write conflict check (the paper's TM is SI-based, §4.1);
//  * durability: the commit point is the group-commit append of the
//    write-set to the recovery log — nothing needs to be persisted in the
//    key-value store before commit returns. Only read-write transactions
//    reach the log: a read-only one cannot conflict under SI and has
//    nothing to make durable, so its commit just releases its snapshot.
//
// The commit-timestamp listener: the client's flush tracker (Algorithm 1)
// must learn commit timestamps *in commit order* with no gaps, otherwise its
// threshold TF(c) could advance past a transaction it has not seen. The
// listener is therefore invoked synchronously inside the oracle's critical
// section, and `current_ts()` takes the same lock — so after current_ts()
// returns C, the listener of every transaction with ts <= C has completed.
// Every timestamp the oracle issues goes to a read-write commit, and the
// listener sees each of them; read-only commits draw none.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

#include "src/txn/txn_log.h"

namespace tfr {

struct TxnHandle {
  std::uint64_t txn_id = 0;
  Timestamp start_ts = kNoTimestamp;
  std::string client_id;  // empty for anonymous transactions
};

struct TxnManagerStats {
  std::int64_t commits = 0;  // read-write commits (each drew a timestamp)
  std::int64_t aborts_conflict = 0;
  std::int64_t aborts_explicit = 0;
};

class TxnManager {
 public:
  explicit TxnManager(TxnLogConfig log_config);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Start a transaction reading at snapshot `start_ts` (the client picks
  /// its snapshot; see TxnClient::begin). `client_id` ties the open
  /// transaction to its client so abandon_client() can reap it.
  ///
  /// A snapshot below the checkpointed TP is never registered: the conflict
  /// table and compaction may already have dropped what it would need. It
  /// is raised to the checkpoint instead (everything at or below TP is
  /// persisted, so the raised snapshot is still never torn); the returned
  /// handle's start_ts is the snapshot actually registered, and
  /// txn.snapshots_raised counts the raises.
  TxnHandle begin(Timestamp start_ts, const std::string& client_id = "");

  /// Start a transaction reading at the newest commit timestamp, picked
  /// under the same lock that registers it — so no checkpoint can pass the
  /// snapshot between the pick and the registration.
  TxnHandle begin_latest(const std::string& client_id = "");

  using TsListener = std::function<void(Timestamp)>;

  /// Attempt to commit. A non-empty write-set draws a commit timestamp,
  /// `ts_listener` (may be null) is invoked with it inside the ordering
  /// critical section, and on success the write-set is durable in the
  /// recovery log and the timestamp is returned. Returns Aborted on a
  /// write-write conflict (first committer wins).
  ///
  /// An empty write-set (a read-only transaction) only releases the
  /// snapshot and returns `txn.start_ts`: no timestamp is drawn, the
  /// listener is not called, nothing is logged, and stats().commits is not
  /// bumped — txn.readonly_commits counts it instead.
  Result<Timestamp> commit(const TxnHandle& txn, WriteSet ws, const TsListener& ts_listener);

  /// Abort: the buffered write-set is simply discarded (§2.2); nothing is
  /// logged or flushed.
  void abort(const TxnHandle& txn);

  /// Reap every transaction a dead client left open (the paper treats them
  /// as aborted — they were never logged). Without this, their snapshots
  /// would pin the conflict-table prune floor forever. Called by the
  /// recovery manager after client-failure handling.
  void abandon_client(const std::string& client_id);

  /// Last issued commit timestamp. Serialized with commit-ts assignment —
  /// see the header comment for why this matters to Algorithm 1.
  Timestamp current_ts() const;

  /// Checkpoint from the recovery manager: transactions at or below the
  /// global persist threshold TP can leave the log, and the conflict table
  /// can forget rows older than any snapshot still in use.
  void checkpoint(Timestamp tp);

  /// The snapshot floor: min(checkpointed TP, oldest registered snapshot)
  /// (kNoTimestamp before the first checkpoint). No registered or future
  /// snapshot is below it — begin() raises late snapshots to the
  /// checkpoint — so it never decreases, and a version older than the
  /// newest one at or below it can be read by no transaction.
  Timestamp snapshot_floor() const;

  TxnLog& log() { return log_; }
  const TxnLog& log() const { return log_; }
  TxnManagerStats stats() const;

 private:
  TxnHandle register_locked(Timestamp start_ts, const std::string& client_id)
      TFR_REQUIRES(mutex_);
  /// Drop the transaction's snapshot from the active set and its client's
  /// open set (commit, abort, and the read-only commit alike).
  void release_locked(const TxnHandle& txn) TFR_REQUIRES(mutex_);
  Timestamp snapshot_floor_locked() const TFR_REQUIRES(mutex_);
  void prune_conflicts_locked() TFR_REQUIRES(mutex_);

  TxnLog log_;

  mutable RankedMutex<LockRank::kTxnManager> mutex_{"txn_manager"};  // oracle + conflicts + active
  Timestamp last_ts_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;
  std::unordered_map<std::string, Timestamp> last_writer_
      TFR_GUARDED_BY(mutex_);  // table\x1f row -> commit ts
  std::set<Timestamp> active_start_ts_ TFR_GUARDED_BY(mutex_);  // multiset via count map
  std::unordered_map<Timestamp, int> active_count_ TFR_GUARDED_BY(mutex_);
  // Open transactions per client (txn_id -> start_ts), for abandon_client.
  std::unordered_map<std::string, std::unordered_map<std::uint64_t, Timestamp>> open_by_client_
      TFR_GUARDED_BY(mutex_);
  Timestamp prune_floor_ TFR_GUARDED_BY(mutex_) = kNoTimestamp;  // from checkpoint()
  std::uint64_t commits_since_prune_ TFR_GUARDED_BY(mutex_) = 0;
  TxnManagerStats stats_ TFR_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> next_txn_id_{1};
};

}  // namespace tfr
