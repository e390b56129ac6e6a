#include "src/kv/kv_client.h"

#include <algorithm>
#include <map>

#include "src/common/backoff.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace tfr {

KvClient::KvClient(Master& master, Micros retry_backoff)
    : master_(&master), retry_backoff_(retry_backoff) {}

Result<RegionLocation> KvClient::locate(const std::string& table, const std::string& row) {
  {
    MutexLock lock(routes_mutex_);
    auto tit = routes_.find(table);
    if (tit != routes_.end() && !tit->second.empty()) {
      auto it = tit->second.upper_bound(row);
      if (it != tit->second.begin()) {
        --it;
        if (it->second.descriptor.contains(row)) {
          route_hits_.fetch_add(1, std::memory_order_relaxed);
          static Counter& hits = global_counter("kv.route_hits");
          hits.add();
          return it->second;
        }
      }
    }
  }
  // Miss: ask the master with the routing lock released.
  auto loc = master_->locate(table, row);
  if (loc.is_ok()) {
    route_misses_.fetch_add(1, std::memory_order_relaxed);
    static Counter& misses = global_counter("kv.route_misses");
    misses.add();
    MutexLock lock(routes_mutex_);
    auto& regions = routes_[table];
    const RegionDescriptor& d = loc.value().descriptor;
    // Evict entries whose start lies inside the new range: regions never
    // overlap, so they are necessarily stale (pre-split daughters, a
    // pre-merge parent). The entry AT the start key is simply overwritten.
    auto it = regions.upper_bound(d.start_key);
    while (it != regions.end() && (d.end_key.empty() || it->first < d.end_key)) {
      it = regions.erase(it);
    }
    regions[d.start_key] = loc.value();
  }
  return loc;
}

void KvClient::invalidate_route(const std::string& table, const std::string& row) {
  MutexLock lock(routes_mutex_);
  auto tit = routes_.find(table);
  if (tit == routes_.end() || tit->second.empty()) return;
  auto it = tit->second.upper_bound(row);
  if (it == tit->second.begin()) return;
  --it;
  if (!it->second.descriptor.contains(row)) return;
  tit->second.erase(it);
  route_invalidations_.fetch_add(1, std::memory_order_relaxed);
  static Counter& invalidations = global_counter("kv.route_invalidations");
  invalidations.add();
}

Status KvClient::flush_writeset(const WriteSet& ws, std::optional<Timestamp> piggyback_tp,
                                bool recovery_replay, const std::atomic<bool>* cancel) {
  return flush_writesets(std::span<const WriteSet>(&ws, 1), piggyback_tp, recovery_replay,
                         cancel);
}

Status KvClient::flush_writesets(std::span<const WriteSet> batch,
                                 std::optional<Timestamp> piggyback_tp, bool recovery_replay,
                                 const std::atomic<bool>* cancel) {
  for (const WriteSet& ws : batch) {
    if (!ws.mutations.empty() && ws.commit_ts == kNoTimestamp) {
      return Status::invalid_argument("write-set has no commit timestamp");
    }
  }
  // Per-write-set pending mutations: a server ack retires one write-set's
  // slice at a time, so partial progress survives a failed round.
  std::vector<std::vector<Mutation>> pending(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) pending[i] = batch[i].mutations;
  Backoff backoff(retry_backoff_, retry_backoff_ * 32);

  for (;;) {
    bool all_done = true;
    for (const auto& p : pending) {
      if (!p.empty()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return Status::ok();
    if (cancel && cancel->load(std::memory_order_acquire)) {
      return Status::closed("flush cancelled (client died)");
    }

    // Route every pending mutation; one slice per (server, write-set).
    std::map<std::string, std::map<std::size_t, std::vector<Mutation>>> by_server;
    Status route_error = Status::ok();
    for (std::size_t i = 0; i < pending.size() && route_error.is_ok(); ++i) {
      for (const auto& m : pending[i]) {
        auto loc = locate(batch[i].table, m.row);
        if (!loc.is_ok()) {
          if (loc.status().is_not_found()) return loc.status();  // permanent
          route_error = loc.status();
          break;
        }
        by_server[loc.value().server_id][i].push_back(m);
      }
    }

    if (route_error.is_ok()) {
      std::vector<std::vector<Mutation>> still(pending.size());
      bool any_retryable = false;
      for (auto& [server_id, slices] : by_server) {
        RegionServer* stub = master_->server_stub(server_id);
        // One RPC carries every write-set's slice for this server.
        BatchApplyRequest req;
        std::vector<std::size_t> slice_ws;  // slice index -> write-set index
        for (auto& [ws_index, muts] : slices) {
          ApplyRequest slice;
          slice.txn_id = batch[ws_index].txn_id;
          slice.client_id = batch[ws_index].client_id;
          slice.commit_ts = batch[ws_index].commit_ts;
          slice.table = batch[ws_index].table;
          slice.mutations = muts;
          slice.piggyback_tp = piggyback_tp;
          slice.recovery_replay = recovery_replay;
          req.slices.push_back(std::move(slice));
          slice_ws.push_back(ws_index);
        }
        flush_rpcs_.fetch_add(1, std::memory_order_relaxed);
        auto result = stub == nullptr
                          ? Result<std::vector<Status>>(
                                Status::unavailable("unknown server " + server_id))
                          : stub->apply_batch(req);
        if (!result.is_ok()) {
          // Transport-level failure: every slice in the frame is retried.
          if (!result.status().is_unavailable() && !result.status().is_wrong_epoch()) {
            return result.status();
          }
          any_retryable = true;
          for (auto& [ws_index, muts] : slices) {
            for (const auto& m : muts) invalidate_route(batch[ws_index].table, m.row);
            auto& dst = still[ws_index];
            dst.insert(dst.end(), muts.begin(), muts.end());
          }
          continue;
        }
        const std::vector<Status>& statuses = result.value();
        for (std::size_t s = 0; s < statuses.size(); ++s) {
          if (statuses[s].is_ok()) continue;
          // WrongEpoch means the slice hit a fenced (stale) owner;
          // Unavailable covers a region that moved, split, is mid-recovery
          // or whose server crashed under the apply. Either way the cached
          // routes for these rows are suspect: drop them so the retry
          // re-locates through the master, which has already published (or
          // will publish) the new assignment.
          if (!statuses[s].is_unavailable() && !statuses[s].is_wrong_epoch()) {
            return statuses[s];  // real error
          }
          any_retryable = true;
          const auto& muts = slices[slice_ws[s]];
          for (const auto& m : muts) invalidate_route(batch[slice_ws[s]].table, m.row);
          auto& dst = still[slice_ws[s]];
          dst.insert(dst.end(), muts.begin(), muts.end());
        }
      }
      pending = std::move(still);
      if (!any_retryable) continue;  // progress was clean; re-check for done
    }

    // Unlimited retries (§3.2): back off (with jitter, so clients re-flushing
    // into a recovering region do not wake in lockstep) and try again; the
    // region will come back online once recovery completes.
    flush_retries_.fetch_add(1, std::memory_order_relaxed);
    static Counter& retries = global_counter("kv.flush_retries");
    retries.add();
    if (backoff.attempts() > 0 && backoff.attempts() % 200 == 0) {
      TFR_LOG(WARN, "kvclient") << batch.front().client_id << " still flushing " << batch.size()
                                << " write-set(s) from txn " << batch.front().commit_ts
                                << " after " << backoff.attempts() << " retries";
    }
    if (!backoff.sleep(cancel)) {
      return Status::closed("flush cancelled (client died)");
    }
  }
}

Result<std::optional<Cell>> KvClient::get(const std::string& table, const std::string& row,
                                          const std::string& column, Timestamp read_ts,
                                          int max_retries) {
  Backoff backoff(retry_backoff_, retry_backoff_ * 32);
  for (int attempt = 0;; ++attempt) {
    auto loc = locate(table, row);
    if (loc.is_ok()) {
      RegionServer* stub = master_->server_stub(loc.value().server_id);
      if (stub != nullptr) {
        auto result = stub->get(table, row, column, read_ts, client_id_);
        if (result.is_ok() ||
            (!result.status().is_unavailable() && !result.status().is_wrong_epoch())) {
          return result;
        }
      }
      // Not serving / moved / fenced: the cached route is suspect.
      invalidate_route(table, row);
    } else if (!loc.status().is_unavailable() && !loc.status().is_not_found()) {
      return loc.status();
    }
    if (max_retries != 0 && attempt >= max_retries) {
      return Status::unavailable("get retries exhausted for " + table + "/" + row);
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    static Counter& retries = global_counter("kv.read_retries");
    retries.add();
    backoff.sleep();
  }
}

Result<std::vector<Cell>> KvClient::scan(const std::string& table, const std::string& start,
                                         const std::string& end, Timestamp read_ts,
                                         std::size_t limit, int max_retries) {
  Backoff backoff(retry_backoff_, retry_backoff_ * 32);
  for (int attempt = 0;; ++attempt) {
    auto loc = locate(table, start);
    if (loc.is_ok()) {
      RegionServer* stub = master_->server_stub(loc.value().server_id);
      if (stub != nullptr) {
        // A scan may cross region boundaries; walk regions left to right.
        std::vector<Cell> out;
        std::string cursor = start;
        bool failed = false;
        std::size_t rows_left = limit;
        for (;;) {
          auto cur = locate(table, cursor);
          if (!cur.is_ok()) {
            failed = true;
            break;
          }
          RegionServer* s = master_->server_stub(cur.value().server_id);
          if (s == nullptr) {
            invalidate_route(table, cursor);
            failed = true;
            break;
          }
          const std::string region_end = cur.value().descriptor.end_key;
          const std::string chunk_end =
              (!end.empty() && (region_end.empty() || end < region_end)) ? end : region_end;
          auto cells = s->scan(table, cursor, chunk_end, read_ts, rows_left, client_id_);
          if (!cells.is_ok()) {
            // A chunk bounced (region split under us, moved, or fenced):
            // drop the stale route before the outer retry re-locates.
            invalidate_route(table, cursor);
            failed = true;
            break;
          }
          // Count distinct rows returned.
          std::string last_row;
          std::size_t rows = 0;
          for (const auto& c : cells.value()) {
            if (c.row != last_row) {
              ++rows;
              last_row = c.row;
            }
            out.push_back(c);
          }
          if (limit != 0) {
            if (rows >= rows_left) return out;
            rows_left -= rows;
          }
          if (region_end.empty() || (!end.empty() && region_end >= end)) return out;
          cursor = region_end;
        }
        if (!failed) return out;
      }
    }
    if (max_retries != 0 && attempt >= max_retries) {
      return Status::unavailable("scan retries exhausted for " + table + "/" + start);
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    static Counter& retries = global_counter("kv.read_retries");
    retries.add();
    backoff.sleep();
  }
}

KvClientStats KvClient::stats() const {
  return KvClientStats{flush_rpcs_.load(std::memory_order_relaxed),
                       flush_retries_.load(std::memory_order_relaxed),
                       read_retries_.load(std::memory_order_relaxed),
                       route_hits_.load(std::memory_order_relaxed),
                       route_misses_.load(std::memory_order_relaxed),
                       route_invalidations_.load(std::memory_order_relaxed)};
}

}  // namespace tfr
