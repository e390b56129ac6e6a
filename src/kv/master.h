// Master — coordinates region assignment across region servers (§2.1) and
// drives the store's internal recovery when a server dies:
//
//   1. The coordination service reports the server's session expiry (HBase
//      uses its own heartbeats; ours flow through minizk as the paper's
//      implementation does).
//   2. The master notifies the recovery-middleware hook (`on_server_failure`)
//      — the hook the paper added to the HBase master (§3.2).
//   3. It splits the failed server's WAL by region and reassigns each region
//      to a live server, passing along that region's recovered edits. The
//      receiving server replays them, then runs the region gate (recovery
//      manager replay) before declaring the region online.
//
// Regions are recovered independently (Algorithm 4's loop, fanned out over
// a small worker pool), and distinct server failures are handled on their
// own handler threads so a cascade — a second server dying while the first
// recovery is still replaying — cannot park behind the first failure's
// in-flight gate. Recovery does not interrupt processing on the surviving
// servers.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/epoch.h"

#include "src/common/annotations.h"
#include "src/common/queue.h"
#include "src/coord/coord.h"
#include "src/dfs/dfs.h"
#include "src/kv/region_server.h"

namespace tfr {

/// Extension points the recovery middleware installs on the master.
class MasterHooks {
 public:
  virtual ~MasterHooks() = default;

  /// A server was declared dead, before any of its regions are reassigned.
  /// `regions` lists the affected regions R(s).
  virtual void on_server_failure(const std::string& server_id,
                                 const std::vector<std::string>& regions) = 0;

  /// `parents` were replaced by `children` under `new_epoch` — a split (one
  /// parent, two children) or a merge (two parents, one child). Called
  /// after the transition is committed but BEFORE any child is opened —
  /// floors before gates: each child must inherit its parents' replay floor
  /// (TP-inheritance, §3.2 extended to topology changes) before its replay
  /// gate can possibly fire.
  virtual void on_regions_replaced(const std::vector<std::string>& parents,
                                   const std::vector<std::string>& children,
                                   std::uint64_t new_epoch) {
    (void)parents;
    (void)children;
    (void)new_epoch;
  }

  /// True while `region` has transactional recovery pending (its replay
  /// gate has not finished). The master consults this before a merge:
  /// merging a recovering region would fold a pinned replay floor into a
  /// region whose gate may already have passed.
  virtual bool is_region_recovering(const std::string& region) {
    (void)region;
    return false;
  }
};

struct RegionLocation {
  std::string region_name;
  RegionDescriptor descriptor;
  std::string server_id;
  /// Ownership epoch of the current assignment (the fencing token). Bumped
  /// by the master before every reassignment or recovery replay.
  std::uint64_t epoch = 1;
};

/// Coord-KV prefix under which the master durably records region epochs.
inline constexpr const char* kEpochPrefix = "/tfr/epoch/";

/// Durable topology-transition records, one per retired parent:
///   /tfr/topology/retired/<parent> = the transition's new epoch.
/// A record lives until the janitor has reclaimed the parent's dir (i.e. no
/// child store-file reference marker points into it any more).
inline constexpr const char* kRetiredRecordPrefix = "/tfr/topology/retired/";

/// Tuning for the master's balancer loop (§9). Every tick evens out region
/// counts (one move); the other triggers are opt-in: a zero threshold
/// disables that trigger, interval == 0 disables the loop.
struct BalancerConfig {
  /// Tick period of the background loop; 0 = no background loop (ticks can
  /// still be driven manually via Master::balance_once).
  Micros interval = 0;
  /// Split a region whose store grows past this many bytes (0 = off).
  std::uint64_t split_store_bytes = 0;
  /// Merge adjacent regions BOTH colder than this many ops per tick (0 =
  /// merges off)...
  std::uint64_t merge_traffic_ops = 0;
  /// ...and whose combined store size stays under this many bytes, so a
  /// merge cannot immediately re-trigger a size split (hysteresis).
  std::uint64_t merge_store_bytes = 0;
  /// Move a region off the hottest server when its per-tick load exceeds
  /// the coldest server's by this factor (0 = traffic moves off).
  double move_load_ratio = 0.0;
  /// Ignore traffic ratios below this absolute per-tick load (noise floor).
  std::uint64_t move_min_ops = 64;
  /// Upper bound on topology transitions per tick (keeps a hot tick from
  /// churning the whole keyspace at once).
  int max_actions_per_tick = 4;
};

class Master {
 public:
  Master(Dfs& dfs, Coord& coord);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  /// Subscribe to server-session events and start the recovery worker.
  void start();
  void stop();

  /// Register a server's in-process stub (our stand-in for its RPC address).
  void add_server(RegionServer* server);

  /// Create a table pre-split at `split_keys` (regions: [,k0), [k0,k1), ...)
  /// and assign its regions round-robin across live servers.
  Status create_table(const std::string& table, const std::vector<std::string>& split_keys);

  /// Where does `row` of `table` live right now?
  Result<RegionLocation> locate(const std::string& table, const std::string& row) const;

  /// All regions of a table with their current assignment.
  std::vector<RegionLocation> table_regions(const std::string& table) const;

  /// Current location of a region by name.
  Result<RegionLocation> region_by_name(const std::string& region_name) const;

  /// The stub for a server id; nullptr when unknown.
  RegionServer* server_stub(const std::string& server_id) const;

  /// Split a region in place. A split and a merge are one transition —
  /// parents replaced by children (see commit_replacement) — that differ
  /// only in their preconditions; a split's server-side half localizes
  /// references and chooses the key. If a failure recovery re-fences the
  /// parent meanwhile, the transition aborts and that recovery keeps
  /// ownership (it reopens the parent from its untouched dir).
  Status split_region(const std::string& region_name);

  /// Merge two adjacent regions of a table (left.end_key == right.start_key)
  /// into one. Refused while either region has transactional recovery
  /// pending (the hook's is_region_recovering). Co-locates `right` onto
  /// `left`'s host first, then runs the same transition as a split.
  Status merge_regions(const std::string& left_region, const std::string& right_region);

  /// Start/stop the balancer loop (§9). enable replaces any previous
  /// config; with interval == 0 it installs the config for manual
  /// balance_once ticks without a background thread. Not thread-safe
  /// against itself — call from the cluster control path only.
  void enable_balancer(const BalancerConfig& config);
  void disable_balancer();

  /// One synchronous balancer tick: split/merge/move triggers, then the
  /// topology janitor (reclaims retired parent dirs no store-file reference
  /// marker points into). Serialized by the balancer lock; safe to call
  /// concurrently with the background loop.
  void balance_once();

  /// Move a region to `target_server` (flush + close at the source, open
  /// from store files at the target).
  Status move_region(const std::string& region_name, const std::string& target_server);

  /// Even out the region count across live servers (used after scale-out).
  /// Returns the number of regions moved.
  Result<int> rebalance();

  std::vector<std::string> live_servers() const;

  /// Attach the cluster's epoch registry: every epoch bump is then mirrored
  /// into it, arming the storage-side fencing checks. Install before
  /// traffic starts, as the Cluster does.
  void set_epoch_registry(EpochRegistry* epochs) { epochs_ = epochs; }

  /// Current ownership epoch of a region (0 if unknown).
  std::uint64_t region_epoch(const std::string& region_name) const;

  /// Deliver a server-failure report, as the coordination listener would.
  /// Exposed so tests can exercise duplicate failure deliveries:
  /// handle_server_down is idempotent per server incarnation — a server
  /// re-reported while (or after) its recovery is in flight does not start
  /// a second WAL split.
  void report_server_down(const std::string& server_id, bool crashed);

  /// Install (or clear, with nullptr) the recovery-middleware hooks. Blocks
  /// until no hook invocation is in flight, so after it returns the previous
  /// hooks object can be safely destroyed (the RM restart path swaps it).
  void set_hooks(MasterHooks* hooks);

  /// Block until no failure recovery is in flight (test/bench helper).
  void wait_for_idle() const;

 private:
  void on_session_event(const SessionInfo& info, bool expired);
  void recovery_worker();
  void handle_server_down(const std::string& server_id, bool crashed);
  /// Scoped pin on the installed hooks: set_hooks waits until none is alive
  /// before the old hooks object may be retired.
  class HookCall;
  /// The parents of a transition as snapshotted from the assignment, and
  /// the live host they share.
  struct Parents {
    std::vector<RegionLocation> locs;
    RegionServer* host = nullptr;
  };
  Result<Parents> snapshot_parents(const std::vector<std::string>& names) const;
  /// Commit `parents` -> `children` after the host's server-side half: re-
  /// check every parent epoch against the snapshot (aborting, and clearing
  /// the children's markers, if a failure recovery re-fenced one), swap the
  /// assignment under new_epoch = max(parent epochs) + 1, advance the
  /// children's and the retired parents' epochs, write one retired record
  /// per parent, call on_regions_replaced, then open the children.
  Status commit_replacement(const Parents& parents,
                            const std::vector<RegionDescriptor>& children);
  void janitor_sweep() TFR_REQUIRES(balancer_mutex_);
  std::string pick_live_server_locked(std::size_t salt) const TFR_REQUIRES(mutex_);
  /// Re-flush one region's split-WAL edits through the data path (routed by
  /// row, idempotent recovery replays) when its reassignment was superseded
  /// by a later failure — see the call site for why the edits may be the
  /// only durable copy. Returns false if any record could not be acked by a
  /// live owner within the bounded retry budget.
  bool replay_superseded_edits(const std::string& table, const std::vector<WalRecord>& records);
  /// Advance a region's epoch by one: assignment map + registry + durable
  /// coord-KV record. Returns the new epoch.
  std::uint64_t bump_epoch_locked(const std::string& region_name) TFR_REQUIRES(mutex_);
  /// Mirror a region's epoch grant into the registry and the durable
  /// coord-KV record.
  void publish_epoch_locked(const std::string& region_name, std::uint64_t epoch)
      TFR_REQUIRES(mutex_);

  Dfs* dfs_;
  Coord* coord_;
  EpochRegistry* epochs_ = nullptr;

  mutable RankedMutex<LockRank::kMaster> mutex_{"master"};
  std::map<std::string, RegionServer*> servers_ TFR_GUARDED_BY(mutex_);  // all ever registered
  std::map<std::string, bool> server_alive_ TFR_GUARDED_BY(mutex_);
  std::map<std::string, RegionLocation> assignment_ TFR_GUARDED_BY(mutex_);  // region -> location
  std::map<std::string, std::string> server_wal_paths_ TFR_GUARDED_BY(mutex_);
  /// Servers whose failure handling has started (and, once done, completed)
  /// for the current incarnation; cleared when the id re-registers. Makes
  /// handle_server_down idempotent under duplicate failure deliveries.
  std::set<std::string> downs_handled_ TFR_GUARDED_BY(mutex_);
  MasterHooks* hooks_ TFR_GUARDED_BY(mutex_) = nullptr;
  bool hooks_ever_set_ TFR_GUARDED_BY(mutex_) = false;  // a recovery middleware exists
  bool stopping_ TFR_GUARDED_BY(mutex_) = false;
  int hook_calls_in_flight_ TFR_GUARDED_BY(mutex_) = 0;
  int in_flight_recoveries_ TFR_GUARDED_BY(mutex_) = 0;
  mutable CondVar idle_cv_;

  BlockingQueue<std::pair<std::string, bool>> failures_;   // (server, crashed?)
  std::thread worker_;
  int listener_id_ = 0;

  /// Balancer state. The tick lock serializes whole topology transactions
  /// (it is held across split/merge/move RPCs including gated daughter
  /// opens, hence its high may_block rank); the traffic maps difference
  /// successive cumulative reports into per-tick rates.
  mutable RankedMutex<LockRank::kBalancer> balancer_mutex_{"balancer"};
  BalancerConfig balancer_config_ TFR_GUARDED_BY(balancer_mutex_);
  std::map<std::string, std::uint64_t> balancer_last_traffic_ TFR_GUARDED_BY(balancer_mutex_);
  std::map<std::string, std::int64_t> balancer_last_server_load_ TFR_GUARDED_BY(balancer_mutex_);
  std::unique_ptr<PeriodicTask> balancer_task_;
};

}  // namespace tfr
