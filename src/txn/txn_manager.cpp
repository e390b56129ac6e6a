#include "src/txn/txn_manager.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

TxnManager::TxnManager(TxnLogConfig log_config) : log_(log_config) {}

namespace {
void remove_active(std::set<Timestamp>& set, std::unordered_map<Timestamp, int>& count,
                   Timestamp ts) {
  auto it = count.find(ts);
  if (it == count.end()) return;
  if (--it->second == 0) {
    count.erase(it);
    set.erase(ts);
  }
}
}  // namespace

TxnHandle TxnManager::begin(Timestamp start_ts, const std::string& client_id) {
  MutexLock lock(mutex_);
  if (start_ts < prune_floor_) {
    static Counter& raised = global_counter("txn.snapshots_raised");
    raised.add();
    start_ts = prune_floor_;
  }
  return register_locked(start_ts, client_id);
}

TxnHandle TxnManager::begin_latest(const std::string& client_id) {
  MutexLock lock(mutex_);
  return register_locked(last_ts_, client_id);
}

TxnHandle TxnManager::register_locked(Timestamp start_ts, const std::string& client_id) {
  TxnHandle h;
  h.txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  h.start_ts = start_ts;
  h.client_id = client_id;
  if (++active_count_[start_ts] == 1) active_start_ts_.insert(start_ts);
  if (!client_id.empty()) open_by_client_[client_id][h.txn_id] = start_ts;
  return h;
}

void TxnManager::abandon_client(const std::string& client_id) {
  MutexLock lock(mutex_);
  auto it = open_by_client_.find(client_id);
  if (it == open_by_client_.end()) return;
  for (const auto& [txn_id, start_ts] : it->second) {
    remove_active(active_start_ts_, active_count_, start_ts);
    ++stats_.aborts_explicit;
  }
  open_by_client_.erase(it);
}

Result<Timestamp> TxnManager::commit(const TxnHandle& txn, WriteSet ws,
                                     const TsListener& ts_listener) {
  if (ws.mutations.empty()) {
    // Read-only: under SI it cannot conflict and has nothing to make
    // durable, so it only releases its snapshot — no timestamp, no
    // listener, no log record (DESIGN §8.2).
    static Counter& readonly_commits = global_counter("txn.readonly_commits");
    MutexLock lock(mutex_);
    release_locked(txn);
    readonly_commits.add();
    return txn.start_ts;
  }
  Timestamp commit_ts = kNoTimestamp;
  {
    MutexLock lock(mutex_);
    // First-committer-wins write-write conflict check (snapshot isolation):
    // abort if any row we wrote was committed by someone after our snapshot.
    // Conflict keys are table-qualified — the same row key in two tables is
    // not a conflict.
    for (const auto& m : ws.mutations) {
      auto it = last_writer_.find(ws.table + "\x1f" + m.row);
      if (it != last_writer_.end() && it->second > txn.start_ts) {
        release_locked(txn);
        ++stats_.aborts_conflict;
        return Status::aborted("write-write conflict on row " + m.row);
      }
    }
    commit_ts = ++last_ts_;
    for (const auto& m : ws.mutations) last_writer_[ws.table + "\x1f" + m.row] = commit_ts;
    release_locked(txn);
    ++stats_.commits;
    if (++commits_since_prune_ >= 4096) prune_conflicts_locked();
    // Inside the critical section: Algorithm 1's FQ sees commit timestamps
    // with no gaps relative to current_ts().
    if (ts_listener) ts_listener(commit_ts);
  }
  ws.commit_ts = commit_ts;
  // Group-commit append; returning from here IS the commit point (§2.2).
  TFR_RETURN_IF_ERROR(log_.append(std::move(ws)));
  return commit_ts;
}

void TxnManager::abort(const TxnHandle& txn) {
  MutexLock lock(mutex_);
  release_locked(txn);
  ++stats_.aborts_explicit;
}

void TxnManager::release_locked(const TxnHandle& txn) {
  if (!txn.client_id.empty()) {
    // abandon_client() already released a dead client's transactions; a
    // late commit or abort from it must not release a second snapshot that
    // happens to share the start ts.
    auto cit = open_by_client_.find(txn.client_id);
    if (cit == open_by_client_.end() || cit->second.erase(txn.txn_id) == 0) return;
  }
  remove_active(active_start_ts_, active_count_, txn.start_ts);
}

Timestamp TxnManager::current_ts() const {
  MutexLock lock(mutex_);
  return last_ts_;
}

void TxnManager::checkpoint(Timestamp tp) {
  log_.truncate_through(tp);
  MutexLock lock(mutex_);
  prune_floor_ = std::max(prune_floor_, tp);
}

Timestamp TxnManager::snapshot_floor() const {
  MutexLock lock(mutex_);
  return snapshot_floor_locked();
}

Timestamp TxnManager::snapshot_floor_locked() const {
  // Future snapshots are >= prune_floor_ (begin() raises any older pick to
  // it); current ones are bounded by the oldest active transaction.
  Timestamp floor = prune_floor_;
  if (!active_start_ts_.empty()) floor = std::min(floor, *active_start_ts_.begin());
  return floor;
}

void TxnManager::prune_conflicts_locked() {
  commits_since_prune_ = 0;
  // A conflict entry is needed while some current or future snapshot could
  // be older than it.
  const Timestamp floor = snapshot_floor_locked();
  if (floor <= kNoTimestamp) return;
  for (auto it = last_writer_.begin(); it != last_writer_.end();) {
    if (it->second <= floor) {
      it = last_writer_.erase(it);
    } else {
      ++it;
    }
  }
}

TxnManagerStats TxnManager::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
