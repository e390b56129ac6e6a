#include "src/recovery/recovery_client.h"

namespace tfr {

Status RecoveryClient::replay_for_client(const WriteSet& ws) {
  TFR_RETURN_IF_ERROR(kv_.flush_writeset(ws, std::nullopt, /*recovery_replay=*/true));
  MutexLock lock(mutex_);
  ++stats_.client_writesets_replayed;
  stats_.mutations_replayed += static_cast<std::int64_t>(ws.mutations.size());
  return Status::ok();
}

Status RecoveryClient::replay_region(std::span<const WriteSet> candidates,
                                     const RegionDescriptor& region,
                                     Timestamp failed_server_tp) {
  // Algorithm 4, replay(): keep only the updates that fall in region r.
  std::vector<WriteSet> slices;
  std::int64_t kept = 0;
  std::int64_t skipped = 0;
  for (const WriteSet& ws : candidates) {
    WriteSet filtered;
    filtered.txn_id = ws.txn_id;
    filtered.client_id = ws.client_id;
    filtered.commit_ts = ws.commit_ts;  // original timestamp, never a fresh one
    filtered.table = ws.table;
    for (const auto& m : ws.mutations) {
      if (ws.table == region.table && region.contains(m.row)) {
        filtered.mutations.push_back(m);
      } else {
        ++skipped;
      }
    }
    if (filtered.mutations.empty()) continue;
    kept += static_cast<std::int64_t>(filtered.mutations.size());
    slices.push_back(std::move(filtered));
  }
  {
    MutexLock lock(mutex_);
    stats_.mutations_skipped += skipped;
  }
  if (slices.empty()) return Status::ok();
  TFR_RETURN_IF_ERROR(
      kv_.flush_writesets(slices, failed_server_tp, /*recovery_replay=*/true));
  MutexLock lock(mutex_);
  stats_.region_writesets_replayed += static_cast<std::int64_t>(slices.size());
  stats_.mutations_replayed += kept;
  return Status::ok();
}

RecoveryClientStats RecoveryClient::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace tfr
