// BlockCache — per-region-server LRU cache of decoded store-file blocks
// (§2.1: "a large main-memory cache to reduce interactions with HDFS").
//
// Blocks enter the cache two ways:
//   * cache-on-write: a memstore flush or a compaction still holds the
//     bytes of the store file it wrote, so once that file is attached to
//     its region its blocks are decoded from memory and inserted directly
//     (insert(); HBase's cacheblocksonwrite). The written working set
//     therefore starts hot: gets, scans and the next compaction read it
//     without touching the DFS. An output that is discarded, fenced or
//     raced is never inserted.
//   * read-through: a block that is not cached is fetched from the DFS,
//     which charges the DFS read latency (get_or_load()). This remains the
//     mechanism behind the slow warm-up after a failover in Figure 3: the
//     regions that move to the surviving server open store files it never
//     wrote, so they arrive with a completely cold cache.
//
// The cache is sharded into independent LRU stripes (key hash picks the
// stripe) so concurrent readers don't serialize on one mutex, and each miss
// is single-flight: the first thread to miss a key runs the loader; threads
// that miss the same key while the load is in flight wait and share the
// result instead of stampeding the DFS with duplicate reads. A failed load
// wakes the waiters and the next one retries as the new loader.
//
// Keys are "<store-file path>#<block index>"; a deleted store file erases
// exactly its own keys (erase()), never scanning the stripes.
//
// Event counts are published both per-cache (stats()) and process-wide
// under kv.cache.{hits,misses,evictions,bytes,write_inserts} in the global
// metrics registry, so soaks and benches can watch hit rates without
// plumbing.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/kv/types.h"

namespace tfr {

/// A decoded, immutable store-file block: cells sorted by (row, column,
/// ts desc), same order as the memstore.
struct CacheBlock {
  std::vector<Cell> cells;
  std::size_t byte_size = 0;
};

using BlockPtr = std::shared_ptr<const CacheBlock>;

struct BlockCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;
  /// Lookups that found another thread already loading the key and waited
  /// for its result instead of re-running the loader.
  std::int64_t single_flight_waits = 0;
  /// Blocks inserted by cache-on-write (flush and compaction output).
  std::int64_t write_inserts = 0;
};

class BlockCache {
 public:
  /// `num_shards` is rounded up to a power of two; 0 picks the default (16).
  /// Capacity is split evenly across shards.
  explicit BlockCache(std::size_t capacity_bytes, std::size_t num_shards = 0);

  /// Look up `key`; on miss, call `loader` (which typically performs a DFS
  /// read and therefore blocks for the read latency), insert, and return.
  /// The loader runs outside the cache lock, and at most one loader per key
  /// is in flight — concurrent misses on the same key wait and share the
  /// loaded block.
  Result<BlockPtr> get_or_load(const std::string& key,
                               const std::function<Result<BlockPtr>()>& loader);

  /// Cache-on-write: insert an already-decoded block as the most recently
  /// used entry, evicting as a load would. An entry already present for
  /// `key` (a reader raced the insert and loaded the same immutable block)
  /// is kept.
  void insert(const std::string& key, BlockPtr block);

  /// Drop `key` if cached (its store file was deleted).
  void erase(const std::string& key);

  void clear();

  /// Aggregated over all shards.
  BlockCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    mutable RankedMutex<LockRank::kBlockCache> mutex{"block_cache_shard"};
    CondVar load_done;  // signaled whenever an in-flight load finishes
    std::list<std::string> lru TFR_GUARDED_BY(mutex);  // front = most recent
    struct Entry {
      BlockPtr block;
      std::list<std::string>::iterator lru_it;
    };
    std::unordered_map<std::string, Entry> map TFR_GUARDED_BY(mutex);
    std::unordered_set<std::string> loading TFR_GUARDED_BY(mutex);
    BlockCacheStats stats TFR_GUARDED_BY(mutex);
    std::size_t capacity = 0;

    /// Insert `block` under `key` as most recent; returns the resident
    /// entry (the existing one if `key` was already cached).
    BlockPtr insert_locked(const std::string& key, BlockPtr block) TFR_REQUIRES(mutex);
    void evict_to_fit() TFR_REQUIRES(mutex);
  };

  Shard& shard_for(const std::string& key) const;

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tfr
