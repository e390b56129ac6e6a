// Dynamic topology under a skewed workload (§9): a zipfian hot-key write
// stream lands on a table that starts as ONE region hosted by one of four
// servers. The master balancer must carry the cluster from that degenerate
// layout to a balanced one on its own — size-triggered splits as the store
// grows, then count/traffic moves to spread the daughters — while the
// workload keeps running through the fenced transitions (clients re-locate
// on NotServing/WrongEpoch).
//
// The bench asserts the end state, not a latency figure: at least one split
// happened, every live server ends up hosting at least one region, and the
// per-server region counts stay within a 2x max/min ratio. Emits
// BENCH_split.json (run_benches.sh folds it into BENCH_history.jsonl).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/kv/cluster.h"
#include "src/kv/kv_client.h"

using namespace tfr;

namespace {

constexpr int kServers = 4;
constexpr std::uint64_t kRows = 512;
constexpr int kWriters = 3;
constexpr std::size_t kValueBytes = 128;

std::string row_key(std::uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "row%05llu", static_cast<unsigned long long>(i));
  return buf;
}

WriteSet make_ws(Timestamp ts, int writer, std::uint64_t key) {
  WriteSet ws;
  ws.txn_id = static_cast<std::uint64_t>(ts);
  ws.client_id = "bench-" + std::to_string(writer);
  ws.commit_ts = ts;
  ws.table = "t";
  ws.mutations.push_back(
      Mutation{row_key(key), "c", std::string(kValueBytes, 'v'), false});
  return ws;
}

std::map<std::string, int> per_server_regions(Master& master) {
  std::map<std::string, int> counts;
  for (const auto& id : master.live_servers()) counts[id] = 0;
  for (const auto& loc : master.table_regions("t")) counts[loc.server_id]++;
  return counts;
}

}  // namespace

int main() {
  reset_global_counters();

  ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.coord_check_interval = millis(5);
  cfg.server.heartbeat_interval = millis(10);  // load reports ride heartbeats
  cfg.server.session_ttl = seconds(3);
  cfg.server.wal_sync_interval = millis(10);
  cfg.server.memstore_flush_bytes = 2048;  // flush often: splits need store files
  cfg.server.compaction_file_threshold = 4;
  cfg.balancer.interval = millis(5);
  cfg.balancer.split_store_bytes = 6 * 1024;
  cfg.balancer.move_load_ratio = 2.0;
  cfg.balancer.move_min_ops = 16;
  cfg.balancer.max_actions_per_tick = 2;  // merges stay off (thresholds 0)

  Cluster cluster(cfg);
  if (!cluster.start().is_ok() || !cluster.master().create_table("t", {}).is_ok()) {
    std::fprintf(stderr, "bench_split: cluster setup failed\n");
    return 1;
  }
  if (cluster.master().table_regions("t").size() != 1) {
    std::fprintf(stderr, "bench_split: table did not start as one region\n");
    return 1;
  }

  const int total_ws = std::max(200, static_cast<int>(3000 * bench::bench_scale()));
  std::printf("==============================================================\n");
  std::printf("Split bench: zipfian hot-key writes, 1 region -> balanced\n");
  std::printf("servers=%d  rows=%llu  write_sets=%d  writers=%d  scale=%.2f\n", kServers,
              static_cast<unsigned long long>(kRows), total_ws, kWriters,
              bench::bench_scale());
  std::printf("==============================================================\n");

  // Zipfian writers: every write-set lands through the normal routing path,
  // so fenced splits/moves mid-stream exercise the client re-locate loop.
  std::atomic<Timestamp> next_ts{1};
  std::atomic<int> remaining{total_ws};
  const Micros start = now_micros();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(0x5eedULL + static_cast<std::uint64_t>(w));
      ZipfianChooser keys(kRows);
      KvClient client(cluster.master(), millis(1));
      client.set_client_id("bench-" + std::to_string(w));
      while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
        const Timestamp ts = next_ts.fetch_add(1, std::memory_order_relaxed);
        Status s = client.flush_writeset(make_ws(ts, w, keys.next(rng)));
        if (!s.is_ok()) {
          std::fprintf(stderr, "bench_split: flush_writeset failed: %s\n",
                       s.to_string().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  const double workload_ms = static_cast<double>(now_micros() - start) / 1e3;

  // Let the balancer drain its backlog: stable once a full second of ticks
  // changes neither the topology counters nor the region count.
  auto churn = [] {
    return global_counter("master.region_splits").get() +
           global_counter("master.region_merges").get() +
           global_counter("master.region_moves").get();
  };
  std::uint64_t last = churn();
  std::size_t last_regions = cluster.master().table_regions("t").size();
  int stable_polls = 0;
  for (int i = 0; i < 1000 && stable_polls < 50; ++i) {
    sleep_micros(millis(20));
    const std::uint64_t now = churn();
    const std::size_t regions = cluster.master().table_regions("t").size();
    if (now == last && regions == last_regions) {
      ++stable_polls;
    } else {
      stable_polls = 0;
      last = now;
      last_regions = regions;
    }
  }
  cluster.master().disable_balancer();

  const std::uint64_t splits = global_counter("master.region_splits").get();
  const std::uint64_t merges = global_counter("master.region_merges").get();
  const std::uint64_t moves = global_counter("master.region_moves").get();
  const auto counts = per_server_regions(cluster.master());
  int min_count = 1 << 30, max_count = 0;
  for (const auto& [id, n] : counts) {
    std::printf("  %-12s %d region(s)\n", id.c_str(), n);
    min_count = std::min(min_count, n);
    max_count = std::max(max_count, n);
  }
  const std::size_t regions = cluster.master().table_regions("t").size();
  std::printf("workload: %.1fms  splits=%llu merges=%llu moves=%llu  regions=%zu\n",
              workload_ms, static_cast<unsigned long long>(splits),
              static_cast<unsigned long long>(merges),
              static_cast<unsigned long long>(moves), regions);

  // End-state assertions: the whole point of the bench.
  bool ok = true;
  if (splits == 0) {
    std::fprintf(stderr, "bench_split: balancer never split the initial region\n");
    ok = false;
  }
  if (min_count < 1) {
    std::fprintf(stderr, "bench_split: a live server ended with zero regions\n");
    ok = false;
  }
  if (min_count >= 1 && max_count > 2 * min_count) {
    std::fprintf(stderr, "bench_split: unbalanced layout (max=%d min=%d)\n", max_count,
                 min_count);
    ok = false;
  }
  if (global_counter("master.wal_split_failures").get() != 0) {
    std::fprintf(stderr, "bench_split: WAL split failures during the run\n");
    ok = false;
  }
  std::printf("balance: max=%d min=%d -> %s\n", max_count, min_count,
              ok ? "BALANCED" : "FAILED");

  std::FILE* out = std::fopen("BENCH_split.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_split.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"split\",\n");
  std::fprintf(out, "  \"scale\": %.3f,\n", bench::bench_scale());
  std::fprintf(out, "  \"servers\": %d,\n", kServers);
  std::fprintf(out, "  \"write_sets\": %d,\n", total_ws);
  std::fprintf(out, "  \"workload_ms\": %.1f,\n", workload_ms);
  std::fprintf(out, "  \"splits\": %llu,\n", static_cast<unsigned long long>(splits));
  std::fprintf(out, "  \"merges\": %llu,\n", static_cast<unsigned long long>(merges));
  std::fprintf(out, "  \"moves\": %llu,\n", static_cast<unsigned long long>(moves));
  std::fprintf(out, "  \"final_regions\": %zu,\n", regions);
  std::fprintf(out, "  \"regions_per_server\": {");
  bool first = true;
  for (const auto& [id, n] : counts) {
    std::fprintf(out, "%s\"%s\": %d", first ? "" : ", ", id.c_str(), n);
    first = false;
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"max_regions\": %d,\n", max_count);
  std::fprintf(out, "  \"min_regions\": %d,\n", min_count);
  std::fprintf(out, "  \"balanced\": %s\n", ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_split.json\n");
  return ok ? 0 : 1;
}
