// Core data-model types of minibase: cells, mutations, write-sets, regions.
//
// Versioning is the linchpin of the paper's recovery story: every update is
// stamped with the *commit timestamp* of its transaction, which makes
// replaying a write-set idempotent — applying it any number of times yields
// the same multi-version state (§2.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/status.h"

namespace tfr {

/// Commit / snapshot timestamps issued by the timestamp oracle.
/// Monotonically increasing; the commit timestamp determines the
/// serialization order (§2.2).
using Timestamp = std::int64_t;

constexpr Timestamp kNoTimestamp = 0;
constexpr Timestamp kMaxTimestamp = INT64_MAX;

/// One versioned value in the store.
struct Cell {
  std::string row;
  std::string column;
  std::string value;
  Timestamp ts = kNoTimestamp;
  bool tombstone = false;

  std::size_t byte_size() const { return row.size() + column.size() + value.size() + 16; }

  bool operator==(const Cell&) const = default;
};

void encode_cell(Encoder& enc, const Cell& cell);
Status decode_cell(Decoder& dec, Cell* cell);

/// One buffered update of a transaction's write-set (not yet versioned; the
/// commit timestamp is stamped on at commit time).
struct Mutation {
  std::string row;
  std::string column;
  std::string value;
  bool is_delete = false;

  Cell to_cell(Timestamp ts) const { return Cell{row, column, value, ts, is_delete}; }

  bool operator==(const Mutation&) const = default;
};

void encode_mutation(Encoder& enc, const Mutation& m);
Status decode_mutation(Decoder& dec, Mutation* m);

/// A committed transaction's write-set as stored in the TM recovery log and
/// flushed to the key-value store: the set of values the transaction
/// inserted, updated, or deleted, with its commit timestamp and the id of
/// the client that executed it (§2.2).
struct WriteSet {
  std::uint64_t txn_id = 0;
  std::string client_id;
  Timestamp commit_ts = kNoTimestamp;
  std::string table;
  std::vector<Mutation> mutations;

  std::string encode() const;
  static Result<WriteSet> decode(std::string_view data);

  std::size_t byte_size() const;
};

/// Process-unique region id for regions created by splits, so a child that
/// inherits its parent's start key still gets a distinct name (HBase
/// disambiguates regions the same way, with a creation-time id in the
/// region name).
std::uint64_t next_region_id();

/// A contiguous, sorted key range of a table, the unit of distribution and
/// recovery (§2.1). `end_key` empty means +infinity.
struct RegionDescriptor {
  std::string table;
  std::string start_key;
  std::string end_key;
  std::uint64_t id = 0;  ///< 0 for table-creation regions; unique for splits

  /// Stable identifier, e.g. "usertable,user25" or "usertable,user25@17".
  std::string name() const {
    std::string n = table + "," + start_key;
    if (id != 0) n += "@" + std::to_string(id);
    return n;
  }

  bool contains(const std::string& row) const {
    return row >= start_key && (end_key.empty() || row < end_key);
  }

  /// True when `right` starts where this region ends (a mergeable pair).
  bool precedes(const RegionDescriptor& right) const {
    return table == right.table && !end_key.empty() && end_key == right.start_key;
  }

  bool operator==(const RegionDescriptor&) const = default;
};

}  // namespace tfr
