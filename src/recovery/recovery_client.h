// RecoveryClient cR — the recovery manager's local client (§3.1/§3.2). It
// differs from a regular client in three ways:
//
//  1. it replays write-sets using the commit timestamp of the original
//     transaction instead of requesting a fresh one (replay is therefore
//     idempotent — same version, same cells);
//  2. during server recovery it filters each write-set to the updates that
//     fall within the affected region, skipping the rest (Algorithm 4,
//     replay);
//  3. during server recovery it piggybacks the failed server's TP(s) on
//     every replayed write-set so the receiving server inherits
//     responsibility for the replayed updates.
//
// A region's whole replay travels as one batched flush: every candidate's
// slice for the region in one apply RPC, so the receiving server inherits
// TP(s) and persists once per region gate, not once per write-set.
#pragma once

#include <span>

#include "src/kv/kv_client.h"

namespace tfr {

struct RecoveryClientStats {
  std::int64_t client_writesets_replayed = 0;
  std::int64_t region_writesets_replayed = 0;
  std::int64_t mutations_replayed = 0;
  std::int64_t mutations_skipped = 0;  // outside the recovering region
};

class RecoveryClient {
 public:
  explicit RecoveryClient(Master& master) : kv_(master) {}

  /// Client recovery: replay the full write-set with its original commit
  /// timestamp to whatever servers currently host its rows.
  Status replay_for_client(const WriteSet& ws);

  /// Server recovery: filter each candidate write-set to the updates that
  /// fall within `region` and replay every non-empty slice in one batched
  /// flush, piggybacking the failed server's TP(s). Candidates with no
  /// update in the region are skipped.
  Status replay_region(std::span<const WriteSet> candidates, const RegionDescriptor& region,
                       Timestamp failed_server_tp);

  RecoveryClientStats stats() const;

 private:
  KvClient kv_;
  mutable RankedMutex<LockRank::kRecoveryTracker> mutex_{"recovery_client"};
  RecoveryClientStats stats_ TFR_GUARDED_BY(mutex_);
};

}  // namespace tfr
