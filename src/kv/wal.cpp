#include "src/kv/wal.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/backoff.h"
#include "src/common/codec.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

std::string WalRecord::encode() const {
  std::string payload;
  Encoder enc(&payload);
  enc.put_string(region);
  enc.put_u64(seq);
  enc.put_u64(txn_id);
  enc.put_string(client_id);
  enc.put_i64(commit_ts);
  enc.put_u64(epoch);
  enc.put_u32(static_cast<std::uint32_t>(cells.size()));
  for (const auto& c : cells) encode_cell(enc, c);
  std::string framed;
  Encoder fenc(&framed);
  fenc.put_string(payload);       // length-prefixed frame...
  fenc.put_u32(crc32c(payload));  // ...with an integrity checksum
  return framed;
}

Result<WalRecord> WalRecord::decode(std::string_view data) {
  Decoder dec(data);
  WalRecord r;
  TFR_RETURN_IF_ERROR(dec.get_string(&r.region));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.seq));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.txn_id));
  TFR_RETURN_IF_ERROR(dec.get_string(&r.client_id));
  TFR_RETURN_IF_ERROR(dec.get_i64(&r.commit_ts));
  TFR_RETURN_IF_ERROR(dec.get_u64(&r.epoch));
  std::uint32_t n = 0;
  TFR_RETURN_IF_ERROR(dec.get_u32(&n));
  r.cells.resize(n);
  for (auto& c : r.cells) TFR_RETURN_IF_ERROR(decode_cell(dec, &c));
  return r;
}

std::string Wal::segment_path(const std::string& base, std::uint64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), ".%08llu", static_cast<unsigned long long>(index));
  return base + buf;
}

Result<std::unique_ptr<Wal>> Wal::create(Dfs& dfs, std::string base_path) {
  auto wal = std::unique_ptr<Wal>(new Wal(dfs, std::move(base_path)));
  MutexLock lock(wal->mutex_);
  TFR_RETURN_IF_ERROR(wal->open_segment_locked());
  return wal;
}

Status Wal::open_segment_locked() {
  Segment seg;
  seg.path = segment_path(base_path_, next_segment_index_++);
  TFR_RETURN_IF_ERROR(dfs_->create(seg.path));
  segments_.push_back(std::move(seg));
  return Status::ok();
}

Result<std::uint64_t> Wal::append(WalRecord record) {
  MutexLock lock(mutex_);
  if (epochs_ != nullptr) {
    Status fence = epochs_->validate(record.region, record.epoch);
    if (!fence.is_ok()) {
      static Counter& rejects = global_counter("kv.epoch_rejects");
      rejects.add();
      TFR_LOG(WARN, "wal") << base_path_ << " rejected stale-epoch append: " << fence;
      return fence;
    }
  }
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  record.seq = seq;
  const std::string framed = record.encode();
  Segment& seg = segments_.back();
  Status appended = dfs_->append(seg.path, framed);
  if (appended.is_wrong_epoch()) {
    // The DFS-level writer fence (master fenced our directory before the
    // split) caught what the registry check raced past.
    static Counter& rejects = global_counter("kv.epoch_rejects");
    rejects.add();
  }
  TFR_RETURN_IF_ERROR(appended);
  if (seg.first_seq == 0) seg.first_seq = seq;
  seg.last_seq = std::max(seg.last_seq, seq);
  seg.bytes += framed.size();
  in_flight_.insert(seq);
  return seq;
}

void Wal::applied(std::uint64_t seq) {
  MutexLock lock(mutex_);
  in_flight_.erase(seq);
}

std::uint64_t Wal::first_unapplied_seq() const {
  MutexLock lock(mutex_);
  return in_flight_.empty() ? next_seq_.load(std::memory_order_acquire) : *in_flight_.begin();
}

Status Wal::sync() {
  TFR_BLOCKING_POINT("wal.sync");
  RankedMutexLock sync_lock(sync_mutex_);
  // Capture the frontier and the open segment before syncing: everything
  // appended before this point is covered by the DFS sync below. The nested
  // acquisition passes sync_lock's token, which static_asserts the
  // kWal < kWalSync rank edge at compile time.
  std::string open_path;
  std::uint64_t frontier = 0;
  {
    RankedMutexLock lock(mutex_, sync_lock.token());
    open_path = segments_.back().path;
    frontier = next_seq_.load(std::memory_order_acquire) - 1;
  }
  if (frontier <= synced_seq_.load(std::memory_order_acquire)) return Status::ok();
  // tfr-lint: blocking-ok(kWalSync exists precisely to serialize this durable
  // write; holding it across dfs_->sync is the design, may_block=true)
  auto synced = dfs_->sync(open_path);
  if (!synced.is_ok()) return synced.status();
  std::uint64_t prev = synced_seq_.load(std::memory_order_relaxed);
  while (prev < frontier &&
         !synced_seq_.compare_exchange_weak(prev, frontier, std::memory_order_release)) {
  }
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

Status Wal::roll() {
  // Make the closing segment fully durable first.
  TFR_RETURN_IF_ERROR(sync());
  MutexLock lock(mutex_);
  TFR_RETURN_IF_ERROR(dfs_->close(segments_.back().path));
  TFR_RETURN_IF_ERROR(open_segment_locked());
  ++rolls_;
  TFR_LOG(DEBUG, "wal") << base_path_ << " rolled to segment " << segments_.back().path;
  return Status::ok();
}

std::size_t Wal::truncate_obsolete(std::uint64_t min_needed_seq) {
  MutexLock lock(mutex_);
  std::size_t removed = 0;
  // The open segment (back) is never removed; closed segments go once every
  // record in them precedes the oldest still-needed sequence number.
  while (segments_.size() > 1) {
    const Segment& seg = segments_.front();
    const bool empty = seg.first_seq == 0;
    if (!empty && seg.last_seq >= min_needed_seq) break;
    Status st = dfs_->remove(seg.path);
    if (st.is_wrong_epoch()) {
      // The master fenced this WAL: we are being recovered. Stop reclaiming
      // — the split must see every remaining segment — and keep the local
      // bookkeeping so a repeated call stays a no-op.
      static Counter& fenced = global_counter("kv.wal_truncate_fenced");
      fenced.add();
      TFR_LOG(WARN, "wal") << base_path_ << " truncation fenced at " << seg.path;
      break;
    }
    segments_.erase(segments_.begin());
    ++removed;
  }
  truncated_ += removed;
  if (removed > 0) {
    TFR_LOG(DEBUG, "wal") << base_path_ << " reclaimed " << removed
                          << " segments below seq " << min_needed_seq;
  }
  return removed;
}

bool Wal::open_segment_obsolete_locked(std::uint64_t min_needed_seq) const {
  const Segment& open = segments_.back();
  return open.first_seq != 0 && open.last_seq < min_needed_seq;
}

bool Wal::discard_open_segment(std::uint64_t min_needed_seq) {
  {
    // Cheap check first: the common case (un-flushed edits in the open
    // segment) must not wait behind an in-progress sync.
    MutexLock lock(mutex_);
    if (!open_segment_obsolete_locked(min_needed_seq)) return false;
  }
  // Holding the sync lock keeps a concurrent sync() from syncing the path
  // deleted below; holding mutex_ keeps appends out while the segment is
  // swapped. A record appended since the check above has seq >= the bound,
  // so the re-check refuses it.
  RankedMutexLock sync_lock(sync_mutex_);
  RankedMutexLock lock(mutex_, sync_lock.token());
  if (!open_segment_obsolete_locked(min_needed_seq)) return false;
  const Segment old = segments_.back();
  // Open the replacement before deleting anything, so a failure (e.g. the
  // master fenced the directory) leaves a usable log behind.
  if (Status opened = open_segment_locked(); !opened.is_ok()) {
    TFR_LOG(WARN, "wal") << base_path_ << " could not replace flushed segment " << old.path
                         << ": " << opened;
    return false;
  }
  if (Status removed = dfs_->remove(old.path); !removed.is_ok()) {
    // Fenced since the create above: the old segment stays, now a closed
    // one, for the split to read.
    TFR_LOG(WARN, "wal") << base_path_ << " could not delete flushed segment " << old.path
                         << ": " << removed;
    return false;
  }
  segments_.erase(segments_.end() - 2);
  ++truncated_;
  // Every record through the old segment's last seq is in a store file (or
  // was never acked), so a sync has nothing older left to make durable.
  std::uint64_t prev = synced_seq_.load(std::memory_order_relaxed);
  while (prev < old.last_seq &&
         !synced_seq_.compare_exchange_weak(prev, old.last_seq, std::memory_order_release)) {
  }
  static Counter& discards = global_counter("kv.wal_open_discards");
  discards.add();
  TFR_LOG(DEBUG, "wal") << base_path_ << " discarded flushed open segment " << old.path;
  return true;
}

std::uint64_t Wal::current_segment_bytes() const {
  MutexLock lock(mutex_);
  return segments_.back().bytes;
}

void Wal::crash() {
  MutexLock lock(mutex_);
  // Closed segments were synced by roll(); only the open one has a volatile
  // tail.
  dfs_->writer_crashed(segments_.back().path);
}

WalStats Wal::stats() const {
  WalStats s;
  s.appended_records = appended_seq();
  s.synced_records = synced_seq();
  s.syncs = sync_count_.load(std::memory_order_relaxed);
  MutexLock lock(mutex_);
  s.rolls = rolls_;
  s.segments_truncated = truncated_;
  s.live_segments = segments_.size();
  return s;
}

namespace {

/// Decode every whole frame of one durable segment. A torn final frame
/// (sync raced a crash) truncates; a checksum mismatch is corruption.
Result<std::vector<WalRecord>> read_segment(Dfs& dfs, const std::string& path) {
  auto data = dfs.read_all(path);
  if (!data.is_ok()) return data.status();
  std::vector<WalRecord> out;
  Decoder dec(data.value());
  while (!dec.done()) {
    std::string payload;
    const auto before = dec.position();
    std::uint32_t stored_crc = 0;
    Status s = dec.get_string(&payload);
    if (s.is_ok()) s = dec.get_u32(&stored_crc);
    if (!s.is_ok()) {
      // A torn final frame can only occur if a sync raced a crash; the
      // durable prefix up to the last whole record is still valid.
      TFR_LOG(WARN, "wal") << "torn WAL tail in " << path << " at offset " << before;
      break;
    }
    if (crc32c(payload) != stored_crc) {
      return Status::corruption("WAL record checksum mismatch in " + path);
    }
    auto rec = WalRecord::decode(payload);
    if (!rec.is_ok()) return rec.status();
    out.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace

Result<std::vector<WalRecord>> Wal::read_records(Dfs& dfs, const std::string& base_path) {
  // Live segments are whatever still exists under the base path, in index
  // (and therefore sequence) order.
  auto paths = dfs.list(base_path + ".");
  if (paths.empty()) return Status::not_found("no WAL segments under " + base_path);
  std::sort(paths.begin(), paths.end());
  std::vector<WalRecord> out;
  for (const auto& path : paths) {
    auto records = read_segment(dfs, path);
    if (!records.is_ok()) return records.status();
    for (auto& r : records.value()) out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });
  return out;
}

Result<std::map<std::string, std::vector<WalRecord>>> Wal::split(Dfs& dfs,
                                                                 const std::string& base_path) {
  return split(dfs, base_path, SplitOptions());
}

Result<std::map<std::string, std::vector<WalRecord>>> Wal::split(Dfs& dfs,
                                                                 const std::string& base_path,
                                                                 const SplitOptions& options) {
  auto paths = dfs.list(base_path + ".");
  if (paths.empty()) return Status::not_found("no WAL segments under " + base_path);
  std::sort(paths.begin(), paths.end());

  // Fan out per source segment. Workers claim segments off a shared cursor;
  // each transient read failure is retried with jittered backoff a bounded
  // number of times so one flaky replica does not fail the split outright.
  std::vector<Result<std::vector<WalRecord>>> per_segment(
      paths.size(), Result<std::vector<WalRecord>>(Status::internal("segment not read")));
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= paths.size()) return;
      Backoff backoff(options.backoff_base, options.backoff_cap);
      auto records = read_segment(dfs, paths[i]);
      while (!records.is_ok() && records.status().is_unavailable() &&
             backoff.attempts() + 1 < options.attempts_per_segment) {
        backoff.sleep();
        records = read_segment(dfs, paths[i]);
      }
      per_segment[i] = std::move(records);
    }
  };
  const int workers =
      std::max(1, std::min<int>(options.workers, static_cast<int>(paths.size())));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  // All-or-nothing: a split that dropped one segment would assign regions
  // from an edit map that silently lost durable edits.
  std::vector<WalRecord> merged;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!per_segment[i].is_ok()) {
      TFR_LOG(WARN, "wal") << "split of " << base_path << " failed at " << paths[i] << ": "
                           << per_segment[i].status();
      return per_segment[i].status();
    }
    for (auto& r : per_segment[i].value()) merged.push_back(std::move(r));
  }
  std::sort(merged.begin(), merged.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.seq < b.seq; });
  std::map<std::string, std::vector<WalRecord>> grouped;
  for (auto& r : merged) {
    grouped[r.region].push_back(std::move(r));
  }
  return grouped;
}

}  // namespace tfr
