// Correctness checks of the benchmark: the durability audit and the
// validity guards. A run whose audit finds a mismatch, or whose guard says
// it measured the wrong thing, reports correct=false and exits non-zero.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/client/txn_client.h"

namespace perfbench {

/// The newest acknowledged value of every row the benchmark wrote. Load
/// threads record after each successful commit; the audit reads every row
/// back and compares.
class Ledger {
 public:
  void record(const std::string& row, tfr::Timestamp commit_ts, const std::string& value);
  std::size_t size() const;

  struct Audit {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::string first_mismatch;  ///< human-readable, empty when clean
  };
  /// Read every recorded row of `table` through `client` (a fresh client
  /// at the latest snapshot) with bounded scans, `threads` at a time.
  Audit audit(tfr::TxnClient& client, const std::string& table, int threads = 4) const;

 private:
  struct Entry {
    tfr::Timestamp ts = tfr::kNoTimestamp;
    std::string value;
  };
  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> rows;
  };
  Stripe stripes_[kStripes];
};

// --- validity guards ---------------------------------------------------------
// Each returns an empty string when the run is valid, else the reason.

/// Store files of one region: paths at window start and end.
struct RegionFiles {
  std::set<std::string> before, after;
};

/// write-heavy: at least one region must have both flushed (a new store
/// file appeared) and compacted (a file present at the start is gone).
std::string write_heavy_guard(const std::map<std::string, RegionFiles>& files);

/// read-scan: the block cache must be missing and evicting, i.e. the data
/// must not fit in it.
std::string read_scan_guard(std::int64_t cache_hits, std::int64_t cache_misses,
                            std::int64_t cache_evictions);

struct FailoverObservation {
  std::int64_t replayed_writesets = 0;
  double target_tps = 0;
  /// Commits completed in the second before the crash, and the generator's
  /// p99 lateness over that second.
  double pre_crash_tps = 0;
  double pre_crash_lateness_p99_ms = 0;
  bool crashed = false;
};

/// failover: the crash must land on steady load, and recovery must replay.
std::string failover_guard(const FailoverObservation& o);

}  // namespace perfbench
