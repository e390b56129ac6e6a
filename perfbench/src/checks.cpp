#include "perfbench/src/checks.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

namespace perfbench {

void Ledger::record(const std::string& row, tfr::Timestamp commit_ts, const std::string& value) {
  Stripe& s = stripes_[std::hash<std::string>{}(row) % kStripes];
  std::lock_guard<std::mutex> lock(s.mutex);
  Entry& e = s.rows[row];
  // `>=`: a transaction that updates a row twice records both puts with one
  // commit timestamp, and the later put is the one its write-set carries.
  if (e.ts == tfr::kNoTimestamp || commit_ts >= e.ts) {
    e.ts = commit_ts;
    e.value = value;
  }
}

std::size_t Ledger::size() const {
  std::size_t n = 0;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.rows.size();
  }
  return n;
}

Ledger::Audit Ledger::audit(tfr::TxnClient& client, const std::string& table,
                            int threads) const {
  std::vector<std::pair<std::string, const Entry*>> expected;
  for (const auto& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    for (const auto& [row, entry] : s.rows) expected.emplace_back(row, &entry);
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  constexpr std::size_t kChunk = 1000;
  const std::size_t chunks = (expected.size() + kChunk - 1) / kChunk;
  std::atomic<std::size_t> next{0};
  std::mutex result_mutex;
  Audit result;
  auto worker = [&] {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const std::size_t lo = c * kChunk;
      const std::size_t hi = std::min(expected.size(), lo + kChunk);
      // [first, last] inclusive: the end bound is the last row plus a NUL.
      tfr::Transaction txn = client.begin(table);
      auto cells = txn.scan(expected[lo].first, expected[hi - 1].first + std::string(1, '\0'), 0);
      txn.abort();
      std::uint64_t bad = 0;
      std::string first;
      if (!cells.is_ok()) {
        bad = hi - lo;
        first = "scan from " + expected[lo].first + " failed: " + cells.status().to_string();
      } else {
        std::unordered_map<std::string, const std::string*> got;
        for (const auto& cell : cells.value()) got[cell.row] = &cell.value;
        for (std::size_t i = lo; i < hi; ++i) {
          auto it = got.find(expected[i].first);
          if (it != got.end() && *it->second == expected[i].second->value) continue;
          ++bad;
          if (first.empty()) {
            first = "row " + expected[i].first + " (acked at ts " +
                    std::to_string(expected[i].second->ts) + ") reads back " +
                    (it == got.end() ? std::string("missing") : "a different value");
          }
        }
      }
      std::lock_guard<std::mutex> lock(result_mutex);
      result.checked += hi - lo;
      result.mismatches += bad;
      if (result.first_mismatch.empty()) result.first_mismatch = first;
    }
  };
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return result;
}

std::string write_heavy_guard(const std::map<std::string, RegionFiles>& files) {
  for (const auto& [region, f] : files) {
    bool flushed = false, compacted = false;
    for (const auto& p : f.after) flushed |= f.before.count(p) == 0;
    for (const auto& p : f.before) compacted |= f.after.count(p) == 0;
    if (flushed && compacted) return {};
  }
  return "no region completed a memstore-flush/compaction cycle in the window";
}

std::string read_scan_guard(std::int64_t cache_hits, std::int64_t cache_misses,
                            std::int64_t cache_evictions) {
  const std::int64_t lookups = cache_hits + cache_misses;
  if (lookups == 0) return "no block-cache lookups in the window";
  const double hit_ratio = static_cast<double>(cache_hits) / static_cast<double>(lookups);
  if (hit_ratio > 0.98 || cache_evictions == 0) {
    return "block cache hit ratio " + std::to_string(hit_ratio) + " with " +
           std::to_string(cache_evictions) + " evictions: the data fits in the cache";
  }
  return {};
}

std::string failover_guard(const FailoverObservation& o) {
  if (!o.crashed) return "region server 0 was never crashed";
  if (o.pre_crash_tps < 0.8 * o.target_tps || o.pre_crash_lateness_p99_ms > 100) {
    return "crash fired before load was steady (" + std::to_string(o.pre_crash_tps) +
           " tps of " + std::to_string(o.target_tps) + " offered, p99 lateness " +
           std::to_string(o.pre_crash_lateness_p99_ms) + " ms in the second before)";
  }
  if (o.replayed_writesets <= 0) return "recovery replayed 0 write-sets";
  return {};
}

}  // namespace perfbench
