#include "src/txn/txn_log.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

namespace {
// Cap on write-sets per group-commit batch.
constexpr std::size_t kMaxBatch = 256;
}  // namespace

TxnLog::TxnLog(TxnLogConfig config)
    : config_(config),
      gc_task_([this] { gc_now(); }, config.gc_interval > 0 ? config.gc_interval : millis(20)) {
  sync_model_.set(config.sync_latency, config.sync_jitter);
  {
    MutexLock lock(mutex_);
    segments_.emplace_back();  // the initial active segment
    stats_.segments = 1;
    export_gauges_locked();
  }
  appender_ = std::thread([this] { appender_loop(); });
  if (config.gc_interval > 0) gc_task_.start();
}

TxnLog::~TxnLog() {
  gc_task_.stop();
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (appender_.joinable()) appender_.join();
}

Status TxnLog::append(WriteSet ws) {
  TFR_BLOCKING_POINT("txn_log.append");
  if (ws.commit_ts == kNoTimestamp) {
    return Status::invalid_argument("write-set has no commit timestamp");
  }
  auto pending = std::make_shared<Pending>();
  pending->ws = std::move(ws);
  {
    MutexLock lock(mutex_);
    queue_.push_back(pending);
    work_cv_.notify_one();
    while (!pending->done && !stop_) done_cv_.wait(lock);
    if (!pending->done) return Status::closed("txn log shut down");
  }
  return Status::ok();
}

void TxnLog::insert_locked(WriteSet ws) {
  Segment* active = &segments_.back();
  if (active->sealed || active->records.size() >= config_.segment_records) {
    // Seal and open a fresh active segment. index_ts inherits the running
    // max so the index stays monotone even if a straggler commit landed
    // out of order across the boundary.
    active->sealed = true;
    segments_.emplace_back();
    Segment& fresh = segments_.back();
    fresh.index_ts = active->index_ts;
    active = &fresh;
    ++stats_.segments;
  }
  const Timestamp ts = ws.commit_ts;
  const auto bytes = static_cast<std::int64_t>(ws.byte_size());
  active->records[ts] = std::move(ws);
  active->max_ts = std::max(active->max_ts, ts);
  active->index_ts = std::max(active->index_ts, ts);
  active->bytes += static_cast<std::size_t>(bytes);
  ++stats_.retained_records;
  stats_.retained_bytes += bytes;
  if (ts > floor_) {
    ++stats_.live_records;
    stats_.live_bytes += bytes;
  } else {
    // A commit at or below an already-published TP cannot happen (TP only
    // covers flushed-and-persisted transactions), but count it as truncated
    // rather than corrupting the live totals if it ever does.
    ++stats_.truncated;
  }
}

void TxnLog::appender_loop() {
  static Histogram& batch_hist = global_histogram("log.batch_size");
  static Histogram& sync_hist = global_histogram("log.sync_wait");
  for (;;) {
    std::vector<std::shared_ptr<Pending>> batch;
    bool waited = false;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stop_) work_cv_.wait(lock);
      if (stop_) return;
      if (queue_.size() < kMaxBatch &&
          static_cast<double>(queue_.size()) < ewma_batch_) {
        // The queue at wake is shallower than the recent batch size: more
        // appenders are likely mid-flight, so hold the sync briefly to let
        // them join. The window is worth at most half a sync — beyond that
        // the wait costs more than the sync it would save.
        const Micros window =
            std::min(static_cast<Micros>(ewma_sync_us_ / 2), config_.max_group_wait);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::microseconds(window);
        while (!stop_ && queue_.size() < kMaxBatch &&
               static_cast<double>(queue_.size()) < ewma_batch_) {
          waited = true;
          if (!work_cv_.wait_until(lock, deadline)) break;
        }
        if (stop_) return;
      }
      const std::size_t take = std::min(queue_.size(), kMaxBatch);
      batch.assign(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(take));
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    // One stable-storage write for the whole batch (group commit), outside
    // the mutex so new appends queue up for the next batch meanwhile.
    const Micros sync_start = now_micros();
    sync_model_.charge();
    const Micros sync_us = now_micros() - sync_start;
    batch_hist.record(static_cast<Micros>(batch.size()));
    sync_hist.record(sync_us);
    {
      MutexLock lock(mutex_);
      // EWMAs react in a few batches but smooth over jitter (alpha = 1/4).
      ewma_sync_us_ += (static_cast<double>(sync_us) - ewma_sync_us_) / 4;
      ewma_batch_ += (static_cast<double>(batch.size()) - ewma_batch_) / 4;
      for (auto& p : batch) {
        insert_locked(std::move(p->ws));
        p->done = true;
        ++stats_.appends;
      }
      ++stats_.batches;
      if (waited) ++stats_.group_waits;
      export_gauges_locked();
    }
    done_cv_.notify_all();
  }
}

std::deque<TxnLog::Segment>::const_iterator TxnLog::first_segment_after(Timestamp after) const {
  // index_ts is the monotone running max, so every segment before the
  // partition point holds only records <= after and is skipped without
  // touching its map.
  return std::partition_point(segments_.begin(), segments_.end(),
                              [after](const Segment& seg) { return seg.index_ts <= after; });
}

std::vector<WriteSet> TxnLog::fetch_after(Timestamp after_ts) const {
  return collect_after(after_ts, nullptr);
}

std::vector<WriteSet> TxnLog::fetch_client_after(const std::string& client_id,
                                                 Timestamp after_ts) const {
  return collect_after(after_ts, &client_id);
}

std::vector<WriteSet> TxnLog::collect_after(Timestamp after_ts,
                                            const std::string* client_id) const {
  MutexLock lock(mutex_);
  const Timestamp after = std::max(after_ts, floor_);
  std::vector<WriteSet> out;
  for (auto seg = first_segment_after(after); seg != segments_.end(); ++seg) {
    for (auto it = seg->records.upper_bound(after); it != seg->records.end(); ++it) {
      if (client_id == nullptr || it->second.client_id == *client_id) {
        out.push_back(it->second);
      }
    }
  }
  // A boundary straggler can sit in a later segment than a newer commit.
  std::sort(out.begin(), out.end(),
            [](const WriteSet& a, const WriteSet& b) { return a.commit_ts < b.commit_ts; });
  return out;
}

void TxnLog::truncate_through(Timestamp up_to) {
  MutexLock lock(mutex_);
  if (up_to <= floor_) return;  // idempotent; lower checkpoints are no-ops
  // Logical truncation: count exactly the records in (floor_, up_to] and
  // advance the floor. Each record is visited by this loop at most once
  // across the log's lifetime, so truncation stays amortized O(1) per
  // record no matter how often the RM checkpoints.
  for (auto seg = first_segment_after(floor_); seg != segments_.end(); ++seg) {
    const auto begin = seg->records.upper_bound(floor_);
    const auto end = seg->records.upper_bound(up_to);
    for (auto it = begin; it != end; ++it) {
      ++stats_.truncated;
      --stats_.live_records;
      stats_.live_bytes -= static_cast<std::int64_t>(it->second.byte_size());
    }
  }
  floor_ = up_to;
  gc_locked();
}

void TxnLog::gc_now() {
  MutexLock lock(mutex_);
  gc_locked();
}

void TxnLog::gc_locked() {
  static Counter& reclaimed = global_counter("log.gc_bytes_reclaimed");
  // Seal an oversized active segment even if appends paused, so an idle
  // log's tail still becomes GC-eligible.
  Segment& active = segments_.back();
  if (!active.sealed && active.records.size() >= config_.segment_records) {
    active.sealed = true;
    segments_.emplace_back();
    segments_.back().index_ts = active.index_ts;
    ++stats_.segments;
  }
  // Delete whole sealed segments strictly below the floor (Algorithm 4).
  // Oldest-first; stop at the first survivor — a later segment's own max
  // can in principle dip below an earlier one's (boundary straggler), but
  // retaining it until the front drains keeps the index intact and costs
  // at most one segment of slack.
  while (segments_.size() > 1 && segments_.front().sealed && segments_.front().max_ts <= floor_) {
    Segment& dead = segments_.front();
    stats_.retained_records -= static_cast<std::int64_t>(dead.records.size());
    stats_.retained_bytes -= static_cast<std::int64_t>(dead.bytes);
    ++stats_.gc_segments;
    stats_.gc_bytes_reclaimed += static_cast<std::int64_t>(dead.bytes);
    reclaimed.add(static_cast<std::int64_t>(dead.bytes));
    --stats_.segments;
    gc_watermark_ = std::max(gc_watermark_, dead.max_ts);
    segments_.pop_front();
  }
  export_gauges_locked();
}

void TxnLog::export_gauges_locked() {
  static Gauge& segments_gauge = global_gauge("log.segments");
  static Gauge& retained_gauge = global_gauge("log.retained_txns");
  segments_gauge.set(stats_.segments);
  retained_gauge.set(stats_.retained_records);
}

Timestamp TxnLog::gc_watermark() const {
  MutexLock lock(mutex_);
  return gc_watermark_;
}

TxnLogStats TxnLog::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
