// Memstore — the per-region in-memory multi-version store (§2.1). Holds the
// latest updates of a region; its contents are what a region server loses
// when it crashes, and what the paper's recovery middleware must be able to
// reconstruct from the TM recovery log.
//
// Not internally synchronized; the owning Region serializes access.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/kv/types.h"

namespace tfr {

class Memstore {
 public:
  /// Apply one versioned cell. Re-applying an identical (row, column, ts)
  /// cell is a no-op in effect — this is what makes write-set replay
  /// idempotent.
  void apply(const Cell& cell);

  /// Newest version with ts <= read_ts, if any (tombstones are returned so
  /// the read path can suppress older store-file versions).
  std::optional<Cell> get(const std::string& row, const std::string& column,
                          Timestamp read_ts) const;

  /// All cells, sorted, for a memstore flush snapshot.
  std::vector<Cell> snapshot() const;

  /// Every version of every (row, column) with row in [start, end), in
  /// (row, column, ts desc) order. The streaming read path snapshots the
  /// memstore's slice of a scan with this (visibility is resolved after the
  /// merge with the store files, so all versions must travel).
  std::vector<Cell> range_snapshot(const std::string& start, const std::string& end) const;

  void clear();

  std::size_t cell_count() const { return cells_.size(); }
  std::size_t byte_size() const { return bytes_; }

  /// Largest commit timestamp ever applied (for flush metadata).
  Timestamp max_ts() const { return max_ts_; }

 private:
  struct Key {
    std::string row;
    std::string column;
    Timestamp ts;  // ordered descending within (row, column)

    bool operator<(const Key& o) const {
      if (row != o.row) return row < o.row;
      if (column != o.column) return column < o.column;
      return ts > o.ts;  // newer first
    }
  };
  struct Value {
    std::string value;
    bool tombstone;
  };

  std::map<Key, Value> cells_;
  std::size_t bytes_ = 0;
  Timestamp max_ts_ = kNoTimestamp;
};

}  // namespace tfr
