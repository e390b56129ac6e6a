// Immutable store files (HBase HFiles / BigTable SSTables). A memstore
// flush writes one store file to the DFS; region reads consult the memstore
// first, then store files newest-first, fetching blocks through the
// BlockCache.
//
// On-disk layout (format v2, the only format):
//   [block 0][block 1]...[block n-1][index][meta][footer]
//   block : u32 cell_count, u32 crc, cells (sorted by row, column, ts desc)
//   index : u32 entry_count, entries { string first_row, u64 off, u64 len }
//   meta  : string first_row, string last_row,      -- file-wide key range
//           u32 bloom_probes, string bloom_bits     -- row bloom filter
//   footer: u64 index_offset, u64 index_length,
//           u64 meta_offset, u64 meta_length, i64 max_ts,
//           u32 version, u32 magic_v2
//
// A file whose footer does not end in the v2 magic (including the retired
// v1 layout, which had no meta section) is rejected as Corruption.
//
// The meta fields are what make the read path prune: a point get consults
// a file only if the row is inside [first_row, last_row] AND the bloom
// filter admits it (kv.sf_range_skips / kv.sf_bloom_skips count the files
// never touched); a scan skips files whose key range misses [start, end).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/kv/block_cache.h"
#include "src/kv/bloom.h"
#include "src/kv/cell_iter.h"
#include "src/kv/types.h"

namespace tfr {

/// Builds one store file from cells supplied in sorted order.
class StoreFileWriter {
 public:
  /// `target_block_bytes`: flush a block once it reaches this size.
  explicit StoreFileWriter(std::size_t target_block_bytes = 16 * 1024);

  /// Cells must arrive in (row, column, ts desc) order — exactly the order
  /// Memstore::snapshot() produces. Blocks rotate only at row boundaries so
  /// a row's whole version chain lives in one block (the reader relies on
  /// this to resolve a lookup with a single block fetch).
  void add(const Cell& cell);

  /// Finish and persist to the DFS at `path` (create + append + sync).
  Status finish(Dfs& dfs, const std::string& path);

  std::size_t cell_count() const { return cell_count_; }

  /// The bytes finish() wrote: the flush or compaction that wrote them opens
  /// and caches the file from here instead of reading it back
  /// (StoreFileReader::open_written, cache_written_blocks).
  const std::string& data() const { return file_data_; }

 private:
  void rotate_block();

  std::size_t target_block_bytes_;
  std::string file_data_;
  std::string current_block_;
  std::string current_first_row_;
  std::string current_last_row_;
  std::uint32_t current_cells_ = 0;
  std::size_t cell_count_ = 0;
  Timestamp max_ts_ = kNoTimestamp;
  std::string file_first_row_;
  std::string file_last_row_;
  std::vector<std::uint64_t> row_hashes_;  // one per distinct row, for the bloom

  struct IndexEntry {
    std::string first_row;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<IndexEntry> index_;
};

/// Read side. Opening decodes the footer, index and meta sections; block
/// fetches go through the shared BlockCache.
class StoreFileReader {
 public:
  /// Open a file from the DFS: three reads (footer, index, meta).
  static Result<std::shared_ptr<StoreFileReader>> open(Dfs& dfs, std::string path);

  /// Open the file `writer` just finished at `path` from the writer's own
  /// bytes: the same decode as open(), with no DFS read. Flush and
  /// compaction attach their output this way.
  static Result<std::shared_ptr<StoreFileReader>> open_written(Dfs& dfs, std::string path,
                                                                const StoreFileWriter& writer);

  /// Defer the DFS file's deletion to this reader's destruction. Compaction
  /// calls this on the inputs it replaced instead of removing their paths
  /// eagerly: a concurrent get/scan (or a second compaction) that snapshotted
  /// files_ still holds shared_ptrs to these readers, and deleting the file
  /// under them turns a benign race into a NotFound surfaced to the client.
  /// The last shared_ptr release removes the file and erases its cached
  /// blocks; `cache` (may be null) and the Dfs must outlive every reader,
  /// which holds because both are owned above the region layer and all
  /// requests are synchronous.
  void remove_on_last_ref(BlockCache* cache) {
    cleanup_cache_ = cache;
    remove_on_last_ref_ = true;
  }

  ~StoreFileReader();

  /// Newest version of (row, column) with ts <= read_ts in this file.
  /// Returns without any block fetch when the bloom filter or key range
  /// proves the row absent.
  Result<std::optional<Cell>> get(BlockCache& cache, const std::string& row,
                                  const std::string& column, Timestamp read_ts) const;

  /// Streaming iterator over every version with row in [start, end), in
  /// (row, column, ts desc) order, loading blocks lazily through `cache` as
  /// it advances. The reader (and cache) must outlive the iterator — the
  /// Region keeps its shared_ptr alive for the duration of the read.
  Result<std::unique_ptr<CellIterator>> iterate(BlockCache& cache, const std::string& start,
                                                const std::string& end) const;

  /// Every cell in the file, all versions, in (row, column, ts desc) order.
  Result<std::vector<Cell>> all_cells(BlockCache& cache) const;

  /// Cache-on-write: decode this file's blocks from the bytes its writer
  /// still holds — exactly what a DFS read would decode, without the read —
  /// and insert them under the keys reads look them up by. One decoded
  /// block is alive at a time outside the cache, so a file larger than the
  /// cache costs no more than the cache holds. Only for a file that is
  /// attached to its region: a discarded or fenced output must never be
  /// cached.
  void cache_written_blocks(BlockCache& cache, const StoreFileWriter& writer) const;

  const std::string& path() const { return path_; }
  Timestamp max_ts() const { return max_ts_; }
  std::size_t block_count() const { return index_.size(); }

  /// Approximate payload size: the sum of all block lengths (index, meta and
  /// footer excluded). Pure index metadata — no I/O.
  std::uint64_t data_bytes() const {
    std::uint64_t total = 0;
    for (const auto& e : index_) total += e.length;
    return total;
  }

  /// First row of the middle block — the natural split key this file's
  /// metadata suggests, with no block reads. Only meaningful with at least
  /// two blocks (a single-block file's midpoint is its first row, which
  /// would make a degenerate left daughter); empty for an empty file.
  std::string midpoint_row() const {
    return index_.empty() ? std::string() : index_[index_.size() / 2].first_row;
  }

  /// File-wide key range [first_row, last_row]; meaningful only when
  /// has_key_range() (files with at least one cell).
  bool has_key_range() const { return !index_.empty(); }
  const std::string& first_row() const { return first_row_; }
  const std::string& last_row() const { return last_row_; }

  /// True unless the key range proves [start, end) cannot intersect this
  /// file.
  bool range_overlaps(const std::string& start, const std::string& end) const;

  /// Bloom + key-range verdict for a point row (no I/O). False means the
  /// row is definitely absent.
  bool may_contain_row(const std::string& row) const;

 private:
  friend class StoreFileIterator;

  StoreFileReader(Dfs& dfs, std::string path) : dfs_(&dfs), path_(std::move(path)) {}

  /// Reads `length` bytes at `offset` of the file being opened.
  using SectionReader =
      std::function<Result<std::string>(std::uint64_t offset, std::uint64_t length)>;
  /// The one footer/index/meta decoder behind open() and open_written().
  static Result<std::shared_ptr<StoreFileReader>> decode(Dfs& dfs, std::string path,
                                                         std::uint64_t size,
                                                         const SectionReader& read);

  /// Cache key of block `idx`: "<path>#<idx>".
  std::string block_key(std::size_t idx) const { return path_ + "#" + std::to_string(idx); }
  /// Decode one framed block (u32 cell_count, u32 crc, cells), checking
  /// its checksum.
  Result<BlockPtr> decode_block(std::string_view raw) const;
  Result<BlockPtr> load_block(std::size_t idx) const;
  Result<BlockPtr> cached_block(BlockCache& cache, std::size_t idx) const;

  /// Index of the last block whose first_row <= row, or npos if row precedes
  /// the whole file.
  std::size_t block_for(const std::string& row) const;

  Dfs* dfs_;
  std::string path_;
  // Plain (non-atomic) is enough for the deferred-delete fields: the setter
  // runs while the setting thread still holds a reference, and the shared_ptr
  // control block's release/acquire on the final decrement orders that write
  // before the destructor on whichever thread drops the last reference.
  bool remove_on_last_ref_ = false;
  BlockCache* cleanup_cache_ = nullptr;
  Timestamp max_ts_ = kNoTimestamp;
  std::string first_row_;
  std::string last_row_;
  BloomFilter bloom_;

  struct IndexEntry {
    std::string first_row;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<IndexEntry> index_;
};

}  // namespace tfr
