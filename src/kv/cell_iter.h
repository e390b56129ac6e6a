// Streaming cell iterators — the spine of the read path.
//
// Region reads used to materialize every matching cell from every source
// (memstore + each store file) into a map and only then apply the row
// limit; a limit=10 scan over a large region decoded the whole region. The
// iterator pipeline replaces that: each source yields its cells lazily in
// (row, column, ts desc) order, a k-way heap merge interleaves them into
// one globally sorted stream, and the visibility driver resolves the
// newest-visible version per (row, column) on the fly, stopping after
// `limit` rows — so a bounded scan decodes O(limit) blocks, not O(region).
//
// The same merge feeds compaction and region dumps, which drops their peak
// memory from O(region) (a std::set of every cell) to O(block).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/kv/types.h"

namespace tfr {

/// One sorted stream of cells in (row, column, ts desc) order. Iterators
/// are created positioned on their first cell (valid() false for an empty
/// stream); advance() moves to the next and surfaces I/O errors (a failed
/// block fetch invalidates the iterator and returns the failure).
class CellIterator {
 public:
  virtual ~CellIterator() = default;

  virtual bool valid() const = 0;

  /// The current cell; only meaningful while valid().
  virtual const Cell& cell() const = 0;

  virtual Status advance() = 0;
};

/// (row, column, ts desc) — the global sort order every source emits.
inline bool cell_before(const Cell& a, const Cell& b) {
  if (a.row != b.row) return a.row < b.row;
  if (a.column != b.column) return a.column < b.column;
  return a.ts > b.ts;
}

/// Iterator over an already-materialized sorted vector (memstore range
/// snapshots, tests).
class VectorCellIterator : public CellIterator {
 public:
  explicit VectorCellIterator(std::vector<Cell> cells) : cells_(std::move(cells)) {}

  bool valid() const override { return pos_ < cells_.size(); }
  const Cell& cell() const override { return cells_[pos_]; }
  Status advance() override {
    ++pos_;
    return Status::ok();
  }

 private:
  std::vector<Cell> cells_;
  std::size_t pos_ = 0;
};

/// K-way heap merge of child iterators into one sorted stream. Children
/// must already be positioned; exhausted children are dropped from the
/// heap. Ties on (row, column, ts) are broken by child order — list the
/// newest source first (memstore, then files newest-first) so duplicate
/// cells (idempotent replay can land the same cell in several files)
/// surface deterministically; consumers drop the duplicates.
class MergingCellIterator : public CellIterator {
 public:
  explicit MergingCellIterator(std::vector<std::unique_ptr<CellIterator>> children);

  bool valid() const override { return !heap_.empty(); }
  const Cell& cell() const override { return heap_.front().it->cell(); }
  Status advance() override;

 private:
  struct Source {
    CellIterator* it;
    std::size_t order;  // position in the children list; lower = newer source
  };
  static bool heap_after(const Source& a, const Source& b);

  std::vector<std::unique_ptr<CellIterator>> children_;
  std::vector<Source> heap_;  // std::*_heap with heap_after: front = smallest
};

/// Drain `it` into `out`, resolving the newest version per (row, column)
/// visible at `read_ts` and suppressing tombstoned columns, until `limit`
/// distinct rows have produced at least one cell (0 = no limit). Stops
/// pulling from `it` — and therefore decoding blocks — as soon as the limit
/// row is complete. Exact duplicates from multiple sources collapse to one.
Status collect_visible(CellIterator& it, Timestamp read_ts, std::size_t limit,
                       std::vector<Cell>* out);

}  // namespace tfr
