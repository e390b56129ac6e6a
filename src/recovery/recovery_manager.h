// RecoveryManager — the paper's failure-recovery middleware (§3), a service
// associated with the transaction manager that coordinates failure detection
// and recovery across clients and servers (Algorithms 2 and 4).
//
// Normal processing:
//   * clients and servers heartbeat through the coordination service,
//     piggybacking their threshold timestamps TF(c) / TP(s);
//   * the RM polls those payloads, maintains the per-component registries,
//     and derives the global thresholds
//        TF = min_c TF(c)   (all txns <= TF fully flushed)
//        TP = min_s TP(s)   (all txns <= TP flushed AND persisted), TP <= TF
//   * TF and TP are published to the coordination service — TF feeds the
//     servers' persist step (Algorithm 3) and the clients' stable read
//     snapshots; TP is the global checkpoint at which the TM recovery log is
//     truncated.
//
// Client failure (session expiry): fetch from the TM log every write-set
// committed by that client after its last reported TF(c) and replay it via
// the recovery client. Until the replay completes, TF is floored at TFr(c)
// so no server can claim persistence of a transaction that is still being
// re-flushed.
//
// Server failure (master hook): after the store's internal per-region
// recovery, and while the region is still gated, fetch every write-set
// committed after the failed server's TPr(s), filter it to the region, and
// replay it with TPr(s) piggybacked. TP is floored at TPr(s) until all of
// the server's regions are recovered, so the log cannot be truncated under
// a pending replay.
//
// RM failure: all state lives in heartbeats, the published thresholds, and
// durable recovery markers in the coordination service; recover_state()
// rebuilds the registries and *resumes in-flight recoveries* from those
// markers (§3.3). Transaction processing continues while the RM is down.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "src/common/queue.h"
#include "src/common/threading.h"
#include "src/coord/coord.h"
#include "src/kv/master.h"
#include "src/recovery/recovery_client.h"
#include "src/recovery/threshold_registry.h"
#include "src/txn/txn_manager.h"

namespace tfr {

struct RecoveryManagerConfig {
  /// How often the RM ingests heartbeat payloads and refreshes TF/TP.
  Micros poll_interval = millis(100);

  /// Ablation baseline: ignore the TF(c)/TP(s) thresholds during recovery
  /// and replay the whole recovery log (correct — replay is idempotent —
  /// but "extremely inefficient", §3). The TM log is truncated at TP, and
  /// the snapshot floor compactions prune below is published, on every
  /// refresh unless this is set.
  bool ignore_thresholds = false;
};

struct RecoveryManagerStats {
  std::int64_t client_recoveries = 0;
  std::int64_t server_recoveries = 0;
  std::int64_t regions_recovered = 0;
  std::int64_t writesets_replayed_client = 0;
  /// Candidate write-sets handed to region gates whose replay succeeded:
  /// every write-set fetched after the region's TPr, including those with
  /// no update in the region (their filtered slice is empty and is never
  /// sent). RecoveryClientStats::region_writesets_replayed counts the
  /// slices actually sent.
  std::int64_t writesets_replayed_server = 0;
  std::int64_t threshold_refreshes = 0;
  /// Pending replay floors migrated across topology transitions: one count
  /// per child region (split daughter or merged region) that min-inherited
  /// its parents' floor.
  std::int64_t floor_inheritances = 0;
};

/// Coordination-service paths where the global thresholds are published.
inline constexpr const char* kTfPath = "/tfr/TF";
inline constexpr const char* kTpPath = "/tfr/TP";

/// Durable recovery markers (coordination-service KV). They make in-flight
/// recoveries survive an RM restart: without them, an RM that dies between
/// "server declared failed" and "last region replayed" would forget the
/// pending replays, regions would come online without their un-persisted
/// write-sets, and committed transactions would be lost.
///   <region prefix>/<region>  = TPr(s) of the failure being recovered
///   <client prefix>/<client>  = TFr(c) of the failed client
///   <registry prefix>/<client> = last TF(c) of each registered client, so a
///     client that dies while no RM is listening is still detected.
inline constexpr const char* kRecoveringRegionPrefix = "/tfr/recovering/region/";
/// <epoch prefix>/<region> = ownership epoch fenced by the failure handling:
/// the gate only accepts a replay once the master's current grant is at
/// least this epoch, so a stale owner cannot consume the replay obligation.
inline constexpr const char* kRecoveringEpochPrefix = "/tfr/recovering/epoch/";
inline constexpr const char* kRecoveringClientPrefix = "/tfr/recovering/client/";
inline constexpr const char* kClientRegistryPrefix = "/tfr/registry/client/";

class RecoveryManager : public MasterHooks {
 public:
  RecoveryManager(Coord& coord, TxnManager& tm, Master& master,
                  RecoveryManagerConfig config = {});
  ~RecoveryManager() override;

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Subscribe to session events, install the master hooks, start polling.
  void start();
  void stop();

  /// Rebuild registries after an RM restart (§3.3): adopt the published
  /// thresholds and the currently-live sessions, reload the pending-region
  /// floors, and re-enqueue interrupted or missed client recoveries from the
  /// durable markers (replay is idempotent, so resuming from the original
  /// floor is safe). Call before start().
  void recover_state();

  // --- MasterHooks (server failure path, §3.2) ------------------------------

  void on_server_failure(const std::string& server_id,
                         const std::vector<std::string>& regions) override;

  /// Topology transitions (§9): a split or a merge replaced `parents` by
  /// `children`. The smallest pending replay floor over the parents
  /// migrates to EVERY child (TP-inheritance extended to topology changes:
  /// each child's TPr is min-merged with it); only after the children
  /// durably hold the floor are the parents' entries erased
  /// (floors-before-erase). For a merge this is defensive — the master
  /// refuses merges of recovering regions via is_region_recovering.
  void on_regions_replaced(const std::vector<std::string>& parents,
                           const std::vector<std::string>& children,
                           std::uint64_t new_epoch) override;
  bool is_region_recovering(const std::string& region) override;

  /// Region gate, called by a region server after internal recovery and
  /// before the region goes online. Blocks for the transactional replay:
  /// one batched flush of the region's slices, which returns once the
  /// hosting server has applied them and heartbeated the inherited TPr
  /// (one sample of rm.gate_replay_us per replaying gate).
  void on_region_recovered(const std::string& region_name, const std::string& server_id);

  // --- thresholds ------------------------------------------------------------

  Timestamp global_tf() const;
  Timestamp global_tp() const;

  /// The lowest threshold floor held by any in-flight recovery: min over
  /// pending-region TPr(s) floors and client TFr(c) floors, kMaxTimestamp
  /// when none is pending. Every recovery still fetches from the TM log
  /// above this bound, so the log's segment GC must never delete a record
  /// at or below it — the invariant the cascading-failure soak monitors.
  Timestamp min_recovery_floor() const;

  /// Force one poll/refresh now (tests use this instead of sleeping).
  void refresh_now() { poll_tick(); }

  RecoveryManagerStats stats() const;
  const RecoveryClientStats recovery_client_stats() const { return recovery_client_.stats(); }

  /// Block until no client/server recovery is in flight.
  void wait_for_idle() const;

 private:
  void poll_tick();
  void on_client_session(const SessionInfo& info, bool expired);
  void on_server_session(const SessionInfo& info, bool expired);
  void recover_client(const std::string& client_id, Timestamp tfr);
  void publish_locked() TFR_REQUIRES(mutex_);
  Timestamp compute_tf_locked() const TFR_REQUIRES(mutex_);
  Timestamp compute_tp_locked() const TFR_REQUIRES(mutex_);

  Coord* coord_;
  TxnManager* tm_;
  Master* master_;
  RecoveryManagerConfig config_;
  RecoveryClient recovery_client_;

  mutable RankedMutex<LockRank::kRecoveryManager> mutex_{"recovery_manager"};
  mutable CondVar idle_cv_;
  /// Registries C and S (Algorithms 2/4), striped so per-component updates
  /// and the min aggregation don't serialize on one mutex. Internally
  /// synchronized; mutations that must be atomic with the recovery floors
  /// or the publish step still run under mutex_ (stripe locks rank below
  /// it, so nesting is legal).
  ShardedThresholdRegistry client_tf_;  // registry C: client -> TF(c)
  ShardedThresholdRegistry server_tp_;  // registry S: server -> TP(s)
  /// Published thresholds: written under mutex_, readable lock-free (the
  /// hot global_tf()/global_tp() queries never touch the RM mutex).
  std::atomic<Timestamp> published_tf_{kNoTimestamp};
  std::atomic<Timestamp> published_tp_{kNoTimestamp};

  /// Floors held during in-flight client recoveries (see header comment).
  std::map<std::string, Timestamp> client_recovery_floor_
      TFR_GUARDED_BY(mutex_);  // client -> TFr(c)

  /// Regions still awaiting transactional replay. Each entry floors the
  /// global TP at its TPr(s) until the replay completes, and is mirrored
  /// durably under kRecoveringRegionPrefix so an RM restart resumes it.
  struct PendingRegion {
    std::string failed_server;  // informational; "?" after an RM restart
    Timestamp tpr = kNoTimestamp;
    /// Epoch the master fenced the region at when handling the failure
    /// (0 = unknown, e.g. markers written before fencing existed).
    std::uint64_t fenced_epoch = 0;
  };
  std::map<std::string, PendingRegion> pending_regions_ TFR_GUARDED_BY(mutex_);
  /// Arm `region`'s replay obligation at `floor`, or — if it is already
  /// pending — min-merge the TPr and max-merge the fenced epoch; then write
  /// its durable markers.
  void arm_pending_locked(const std::string& region, const PendingRegion& floor)
      TFR_REQUIRES(mutex_);
  /// Drop `region`'s replay obligation and its durable markers.
  void disarm_pending_locked(const std::string& region) TFR_REQUIRES(mutex_);

  /// Tombstones for servers whose failure was already handled but whose
  /// coordination session has not expired yet (the master can detect a death
  /// early, from a failed open_region). Without them, poll_tick's ingest of
  /// the stale still-live session — or the eventual expiry event itself —
  /// would resurrect the erased server_tp_ entry and pin the global TP at
  /// the dead server's last payload forever. The expiry event consumes the
  /// tombstone, so a restarted server under the same name starts clean.
  std::set<std::string> failed_servers_ TFR_GUARDED_BY(mutex_);

  RecoveryManagerStats stats_ TFR_GUARDED_BY(mutex_);
  PeriodicTask poller_;
  bool started_ = false;
  int client_listener_id_ = 0;
  int server_listener_id_ = 0;

  /// Client recoveries run here, off the coordination service's expiry
  /// thread: a replay can block on an offline region, and the expiry thread
  /// must stay free to detect the server failure that caused it.
  BlockingQueue<std::function<void()>> work_;
  std::thread worker_;
};

}  // namespace tfr
