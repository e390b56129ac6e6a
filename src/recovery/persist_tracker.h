// PersistTracker — the server side of the paper's checkpointing scheme
// (Algorithm 3). Maintains the server's persist-threshold timestamp TP(s):
//
//   every transaction with commit timestamp T <= TP(s) in which s
//   participates has been received in full AND persisted (its WAL records
//   are durable in the DFS).
//
// A server cannot deduce this locally — a gap in received timestamps may
// mean "not a participant" or "flush still in flight" (§3.2's 20/21/22/23
// example). So the tracker advances conservatively using the *global* flush
// threshold TF published by the recovery manager: on every heartbeat it
// syncs the WAL (persisting everything received so far) and then sets
// TP(s) := TF, because TF guarantees that every committed transaction with
// T <= TF has been fully received by its participants.
//
// Inheritance rule (§3.2): when the recovery client replays an update with a
// piggybacked TP(s_failed), the receiving server lowers its own threshold to
// it — otherwise a second failure in the window before the next WAL sync
// could lose the replayed update, since recovery for *this* server would
// only replay transactions after its own (higher) TP.
//
// The tracker installs itself into the region server's two extension
// points: the write-set observer and the pre-heartbeat hook.
#pragma once

#include <functional>
#include <optional>

#include "src/common/queue.h"
#include "src/kv/region_server.h"
#include "src/kv/types.h"

namespace tfr {

class PersistTracker {
 public:
  /// `fetch_global_tf`: reads the recovery manager's published TF (via the
  /// coordination service). `initial_tp`: the global TP at registration
  /// time (Algorithm 4, on register).
  PersistTracker(RegionServer& server, std::function<Timestamp()> fetch_global_tf,
                 Timestamp initial_tp);

  /// Wire this tracker into the server's hooks. The server will then call
  /// on_received() for every write-set and heartbeat_payload() before every
  /// heartbeat.
  void install();

  /// Algorithm 3, "On receive": track the write-set; inherit a piggybacked
  /// threshold. Returns true if an immediate heartbeat should follow (the
  /// threshold was lowered and the recovery manager should learn quickly);
  /// install()'s observer hands that request to the server, which issues
  /// one heartbeat per received batch.
  bool on_received(Timestamp commit_ts, std::optional<Timestamp> piggyback_tp);

  /// Algorithm 3, "On heartbeat": persist everything received (WAL sync),
  /// advance TP(s) to the global TF, and return TP(s) as the payload. The
  /// first payload after an inheritance counts in tracker.inherit_heartbeats.
  Timestamp heartbeat_payload();

  Timestamp tp() const;

  /// |PQ| — received write-sets not yet covered by TP(s); the §3.2 alert
  /// monitors this.
  std::size_t queue_size() const { return pq_.size(); }

 private:
  RegionServer* server_;
  std::function<Timestamp()> fetch_global_tf_;

  // Serializes the persist-and-advance step against threshold inheritance;
  // see the interleaving argument in persist_tracker.cpp. Deliberately held
  // across Wal::sync, hence ranked above kWalSync.
  mutable RankedMutex<LockRank::kRecoveryTracker> mutex_{"persist_tracker"};
  Timestamp tp_ TFR_GUARDED_BY(mutex_);
  bool inherited_unreported_ TFR_GUARDED_BY(mutex_) = false;
  SyncedMinQueue<Timestamp> pq_;  // received, in commit order
};

}  // namespace tfr
