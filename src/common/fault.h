// FaultInjector — a seeded, deterministic fault-injection layer for the two
// I/O boundaries of the system: the client <-> region-server RPC path and
// the DFS. The paper's testbed only supports clean crash-fail faults; the
// chaos tests layer *gray* failures underneath them — transient RPC errors,
// dropped responses, corrupted frames, and slow or failing DFS syncs — which
// is exactly the regime where the threshold tracking (Algorithms 1-4) and
// the unbounded-retry flush path (§3.2) are most likely to break.
//
// Design:
//  * Rules match an operation kind plus a target prefix (a server id such as
//    "rs2", or a DFS path prefix such as "/wal/"). An empty target matches
//    everything.
//  * Each matching call draws from a single seeded PRNG, so a failing chaos
//    schedule is replayable from its seed (modulo thread interleaving; the
//    *schedule* — which rules exist, which nodes crash, when — is fully
//    deterministic from the seed).
//  * Disabled-path cost is one relaxed atomic load; with no injector
//    installed the boundaries pay a single branch on a plain pointer. The
//    default path through benches is therefore unchanged.
//  * Everything injected is counted, both locally (stats()) and in the
//    process-wide metrics registry ("fault.*" counters), so tests can assert
//    that a schedule actually exercised the paths it meant to.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/annotations.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace tfr {

/// The injectable operation kinds, one per instrumented I/O boundary.
enum class FaultOp {
  kRpcApply,        // RegionServer::apply_batch
  kRpcGet,          // RegionServer::get
  kRpcScan,         // RegionServer::scan
  kDfsSync,         // Dfs::sync (per path)
  kDfsRead,         // Dfs::read (per path)
  kCoordHeartbeat,  // RegionServer::heartbeat_tick -> Coord::heartbeat
};

std::string_view fault_op_name(FaultOp op);

/// One fault rule. All probabilities are drawn independently per call.
struct FaultRule {
  FaultOp op = FaultOp::kRpcApply;

  /// Server id ("rs1") or DFS path prefix ("/wal/"); empty matches all.
  std::string target;

  /// Probability that the call fails with a transient Unavailable before the
  /// operation takes effect (a lost request).
  double error_probability = 0;

  /// Probability that the operation *succeeds* server-side but its response
  /// is reported lost (the caller sees Unavailable and retries — this is the
  /// schedule that exercises idempotent replay). Only meaningful for
  /// kRpcApply; ignored elsewhere.
  double drop_response_probability = 0;

  /// Probability that the request frame is corrupted on the wire (one bit
  /// flip before decode). Only meaningful for kRpcApply.
  double corrupt_probability = 0;

  /// Added latency: with probability delay_probability, sleep `delay` (the
  /// slow-sync / slow-read "gray failure").
  double delay_probability = 0;
  Micros delay = 0;

  /// One-shot trigger: fail the next `fail_next` matching calls with
  /// Unavailable (counts down; independent of error_probability).
  int fail_next = 0;
};

/// What a single inject() call decided. The delay, if any, has already been
/// slept by inject() itself.
struct FaultAction {
  bool fail = false;           ///< return Unavailable without doing the work
  bool drop_response = false;  ///< do the work, then return Unavailable
  bool corrupt_wire = false;   ///< flip a bit in the request frame
  Micros delayed = 0;          ///< latency already injected
};

struct FaultStats {
  std::int64_t evaluations = 0;       ///< matching-rule evaluations
  std::int64_t injected_errors = 0;   ///< lost requests (incl. one-shot)
  std::int64_t dropped_responses = 0;
  std::int64_t corrupted_wires = 0;
  std::int64_t injected_delays = 0;
  std::int64_t partition_drops = 0;   ///< messages dropped by partition rules
  Micros delay_micros = 0;            ///< total injected latency
};

/// A network partition between two nodes, matched by id prefix (so "client"
/// matches every client, "" matches everyone). Unlike probabilistic rules a
/// partition is absolute and deterministic: while installed, *every*
/// matching message is dropped — no PRNG draw, so partitions do not perturb
/// the seeded schedule of the probabilistic rules.
///
/// `symmetric` partitions drop traffic both ways. An asymmetric rule drops
/// only src -> dst traffic: for the apply RPC that means a request from a
/// matching source is lost before the server sees it, while a blocked
/// *response* direction (dst -> src) surfaces as drop_response — the write
/// lands but the ack never arrives. This is the gray-failure geometry that
/// creates zombie servers: partition a server from coord but not from its
/// clients and it keeps acking writes while the master declares it dead.
struct PartitionRule {
  std::string src;  ///< prefix of the sending node id; empty matches all
  std::string dst;  ///< prefix of the receiving node id; empty matches all
  bool symmetric = true;
};

/// Thread-safe. One instance per Cluster; shared by the DFS and every
/// region server.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Reset the PRNG to a known seed (call before installing rules so the
  /// whole schedule is a function of the seed).
  void reseed(std::uint64_t seed);
  std::uint64_t seed() const;

  /// Install a rule and enable the injector. Returns a rule id (unused for
  /// now beyond debugging).
  int add_rule(FaultRule rule);

  /// Drop every rule and disable the injector; stats are kept.
  /// Partitions are unaffected (heal them with clear_partitions()).
  void clear_rules();

  /// Install a partition and enable the injector. Returns a partition id
  /// for heal_partition(). Mirrors into the "fault.partitions_active" gauge.
  int add_partition(PartitionRule rule);

  /// Heal one partition by id (returned from add_partition).
  void heal_partition(int id);

  /// Heal every partition.
  void clear_partitions();

  /// True iff a partition rule currently blocks `from` -> `to` traffic.
  /// Deterministic — no PRNG draw, so it never perturbs the seeded
  /// schedule. Counted in stats().partition_drops when it fires.
  bool partitioned(std::string_view from, std::string_view to);

  /// Status-returning wrapper: Unavailable if `from` -> `to` is blocked.
  /// `op` only labels the error message.
  Status check_partition(FaultOp op, std::string_view from, std::string_view to);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Evaluate all rules matching (op, target). Sleeps any injected delay
  /// before returning. When disabled this is one relaxed atomic load.
  FaultAction inject(FaultOp op, std::string_view target);

  /// Convenience wrapper for boundaries with no side effects between request
  /// and response: returns Unavailable if either a lost request or a lost
  /// response fired.
  Status check(FaultOp op, std::string_view target);

  FaultStats stats() const;
  void reset_stats();

 private:
  std::atomic<bool> enabled_{false};

  mutable RankedMutex<LockRank::kFaultInjector> mutex_{"fault_injector"};
  std::uint64_t seed_ TFR_GUARDED_BY(mutex_) = 0;
  Rng rng_ TFR_GUARDED_BY(mutex_){0};
  std::vector<FaultRule> rules_ TFR_GUARDED_BY(mutex_);
  /// (id, rule); healed partitions are erased, ids never reused.
  std::vector<std::pair<int, PartitionRule>> partitions_ TFR_GUARDED_BY(mutex_);
  int next_partition_id_ TFR_GUARDED_BY(mutex_) = 1;
  FaultStats stats_ TFR_GUARDED_BY(mutex_);
};

}  // namespace tfr
