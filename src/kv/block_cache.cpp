#include "src/kv/block_cache.h"

#include "src/common/metrics.h"

namespace tfr {

namespace {
constexpr std::size_t kDefaultShards = 16;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Process-wide gauges, shared by every cache instance (one per region
// server): soaks and benches read the fleet-wide hit rate here. bytes is
// maintained with +/- deltas so it tracks the current resident size.
Counter& cache_hits() {
  static Counter& c = global_counter("kv.cache.hits");
  return c;
}
Counter& cache_misses() {
  static Counter& c = global_counter("kv.cache.misses");
  return c;
}
Counter& cache_evictions() {
  static Counter& c = global_counter("kv.cache.evictions");
  return c;
}
Counter& cache_bytes() {
  static Counter& c = global_counter("kv.cache.bytes");
  return c;
}
Counter& cache_single_flight_waits() {
  static Counter& c = global_counter("kv.cache.single_flight_waits");
  return c;
}
Counter& cache_write_inserts() {
  static Counter& c = global_counter("kv.cache.write_inserts");
  return c;
}
}  // namespace

BlockCache::BlockCache(std::size_t capacity_bytes, std::size_t num_shards)
    : capacity_(capacity_bytes) {
  const std::size_t n = round_up_pow2(num_shards == 0 ? kDefaultShards : num_shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = capacity_bytes / n;
  }
}

BlockCache::Shard& BlockCache::shard_for(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) & (shards_.size() - 1)];
}

Result<BlockPtr> BlockCache::get_or_load(const std::string& key,
                                         const std::function<Result<BlockPtr>()>& loader) {
  Shard& s = shard_for(key);
  {
    MutexLock lock(s.mutex);
    for (;;) {
      auto it = s.map.find(key);
      if (it != s.map.end()) {
        s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
        ++s.stats.hits;
        cache_hits().add();
        return it->second.block;
      }
      if (s.loading.count(key) == 0) break;  // we become the loader
      // Another thread is loading this key; wait for it and re-check. On a
      // successful load we hit in the map; on a failed load the loading
      // marker is gone and we take over as the loader.
      ++s.stats.single_flight_waits;
      cache_single_flight_waits().add();
      s.load_done.wait(lock);
    }
    s.loading.insert(key);
    ++s.stats.misses;
    cache_misses().add();
  }

  // Load outside the lock: the DFS read latency must not serialize the
  // shard. Single-flight guarantees no other thread is loading this key.
  Result<BlockPtr> loaded = loader();

  MutexLock lock(s.mutex);
  s.loading.erase(key);
  s.load_done.notify_all();
  if (!loaded.is_ok()) return loaded;
  return s.insert_locked(key, loaded.value());
}

BlockPtr BlockCache::Shard::insert_locked(const std::string& key, BlockPtr block) {
  auto it = map.find(key);
  if (it != map.end()) {
    // Raced an insert (a cache-on-write or a clear/erase interleaving):
    // the file is immutable, so keep the existing entry.
    lru.splice(lru.begin(), lru, it->second.lru_it);
    return it->second.block;
  }
  lru.push_front(key);
  map[key] = Entry{block, lru.begin()};
  stats.bytes += static_cast<std::int64_t>(block->byte_size);
  cache_bytes().add(static_cast<std::int64_t>(block->byte_size));
  evict_to_fit();
  return block;
}

void BlockCache::Shard::evict_to_fit() {
  while (stats.bytes > static_cast<std::int64_t>(capacity) && !lru.empty()) {
    const std::string& victim = lru.back();
    auto it = map.find(victim);
    if (it != map.end()) {
      stats.bytes -= static_cast<std::int64_t>(it->second.block->byte_size);
      cache_bytes().add(-static_cast<std::int64_t>(it->second.block->byte_size));
      map.erase(it);
      ++stats.evictions;
      cache_evictions().add();
    }
    lru.pop_back();
  }
}

void BlockCache::insert(const std::string& key, BlockPtr block) {
  Shard& s = shard_for(key);
  MutexLock lock(s.mutex);
  ++s.stats.write_inserts;
  cache_write_inserts().add();
  s.insert_locked(key, std::move(block));
}

void BlockCache::erase(const std::string& key) {
  Shard& s = shard_for(key);
  MutexLock lock(s.mutex);
  auto it = s.map.find(key);
  if (it == s.map.end()) return;
  s.stats.bytes -= static_cast<std::int64_t>(it->second.block->byte_size);
  cache_bytes().add(-static_cast<std::int64_t>(it->second.block->byte_size));
  s.lru.erase(it->second.lru_it);
  s.map.erase(it);
}

void BlockCache::clear() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mutex);
    cache_bytes().add(-s.stats.bytes);
    s.map.clear();
    s.lru.clear();
    s.stats.bytes = 0;
    // `loading` stays: in-flight loaders own their markers and will erase
    // them when they finish.
  }
}

BlockCacheStats BlockCache::stats() const {
  BlockCacheStats total;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    MutexLock lock(s.mutex);
    total.hits += s.stats.hits;
    total.misses += s.stats.misses;
    total.evictions += s.stats.evictions;
    total.bytes += s.stats.bytes;
    total.single_flight_waits += s.stats.single_flight_waits;
    total.write_inserts += s.stats.write_inserts;
  }
  return total;
}

}  // namespace tfr
