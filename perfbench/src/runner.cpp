#include "perfbench/src/runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "perfbench/src/checks.h"
#include "perfbench/src/json.h"
#include "src/common/metrics.h"

namespace perfbench {
namespace {

using tfr::Micros;
using tfr::now_micros;
using tfr::Testbed;

constexpr const char* kTable = "usertable";
constexpr const char* kColumn = "field0";
constexpr int kMaxAttempts = 20;  ///< conflict-abort retries per transaction

void sleep_until(Micros t) {
  const Micros now = now_micros();
  if (t > now) std::this_thread::sleep_for(std::chrono::microseconds(t - now));
}

template <typename F>
void parallel(int n, F&& f) {
  std::vector<std::thread> pool;
  for (int i = 0; i < n; ++i) pool.emplace_back([&f, i] { f(i); });
  for (auto& t : pool) t.join();
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<Micros> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

Micros cpu_micros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) { return static_cast<Micros>(t.tv_sec) * 1'000'000 + t.tv_usec; };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- observations ------------------------------------------------------------

/// What one load thread saw. Latency vectors hold only transactions due in
/// the measured window; op counts cover every attempt in it.
struct Samples {
  std::vector<Micros> txn, commit, get, scan, begin, self;
  std::vector<Micros> lateness, lateness_due;  ///< open loop: start minus due time
  std::vector<Micros> commit_done;             ///< completion time of each commit
  std::vector<bool> commit_wrote;              ///< ... and whether it had updates
  std::uint64_t attempted = 0, committed = 0, failed = 0, aborts = 0;
  std::uint64_t get_calls = 0, scan_calls = 0, user_bytes = 0;
  /// Traced: time inside the committing attempt's spans (begin, ops, commit,
  /// self) and the whole latency of committed transactions, summed.
  Micros spanned_us = 0, txn_us = 0;
  std::vector<std::string> wrong;  ///< incorrect reads (first few)

  void merge(Samples&& o) {
    auto cat = [](auto& a, auto& b) { a.insert(a.end(), b.begin(), b.end()); };
    cat(txn, o.txn), cat(commit, o.commit), cat(get, o.get), cat(scan, o.scan);
    cat(begin, o.begin), cat(self, o.self), cat(lateness, o.lateness);
    cat(lateness_due, o.lateness_due), cat(commit_done, o.commit_done);
    cat(commit_wrote, o.commit_wrote), cat(wrong, o.wrong);
    attempted += o.attempted, committed += o.committed, failed += o.failed, aborts += o.aborts;
    get_calls += o.get_calls, scan_calls += o.scan_calls, user_bytes += o.user_bytes;
    spanned_us += o.spanned_us, txn_us += o.txn_us;
  }
};

/// Registry and *Stats() values at one instant.
struct Snapshot {
  std::map<std::string, std::int64_t> counters, gauges;
  tfr::TxnManagerStats tm;
  tfr::TxnLogStats log;
  tfr::DfsStats dfs;
  tfr::RecoveryManagerStats rm;
  tfr::RecoveryClientStats rc;
  std::int64_t wal_syncs = 0, wal_synced_records = 0;
  std::vector<std::int64_t> server_ops;
  std::map<std::string, std::set<std::string>> region_files;
  std::map<std::string, std::string> assignment;  ///< region -> server
  Micros cpu = 0;

  std::int64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::int64_t gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
};

Snapshot take_snapshot(Testbed& bed) {
  Snapshot s;
  s.cpu = cpu_micros();
  for (auto& [k, v] : tfr::global_counter_snapshot()) s.counters[k] = v;
  for (auto& [k, v] : tfr::global_gauge_snapshot()) s.gauges[k] = v;
  s.tm = bed.tm().stats();
  s.log = bed.tm().log().stats();
  s.dfs = bed.dfs().stats();
  s.rm = bed.rm().stats();
  s.rc = bed.rm().recovery_client_stats();
  for (int i = 0; i < bed.cluster().num_servers(); ++i) {
    tfr::RegionServer& server = bed.cluster().server(i);
    const auto wal = server.wal().stats();
    s.wal_syncs += static_cast<std::int64_t>(wal.syncs);
    s.wal_synced_records += static_cast<std::int64_t>(wal.synced_records);
    std::int64_t ops = 0;
    for (const auto& load : server.region_loads()) {
      ops += static_cast<std::int64_t>(load.reads + load.writes);
    }
    s.server_ops.push_back(ops);
    if (!server.alive()) continue;
    for (const auto& name : server.region_names()) {
      if (auto region = server.region(name)) {
        const auto paths = region->store_file_paths();
        s.region_files[name] = std::set<std::string>(paths.begin(), paths.end());
      }
    }
  }
  for (const auto& loc : bed.master().table_regions(kTable)) {
    s.assignment[loc.region_name] = loc.server_id;
  }
  return s;
}

/// Mean and maximum of a sampled level.
struct Level {
  double sum = 0, max = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    max = n == 0 ? v : std::max(max, v);
    ++n;
  }
  double mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
};

struct Levels {
  Level flush_backlog, tf_lag, tp_lag, log_retained, store_files, memstore_bytes, wal_segments;
};

/// A registry histogram's distribution over one window (microseconds or
/// counts, as recorded).
struct HistStat {
  std::int64_t count = 0;
  double mean = 0, p50 = 0, p99 = 0, max = 0;
};

/// Everything one measured window observed.
struct Window {
  Micros start = 0, end = 0, length = 0;
  Samples s;
  Snapshot before, after, recovered;
  std::map<std::string, HistStat> histograms;  ///< recorded in the window only
  Levels levels;
  std::vector<Micros> probe_loaded, probe_idle;
  Micros crash_at = 0, detected_at = 0;
  double split_ms = 0, reassign_replay_ms = 0;
  std::size_t region_count = 0;
  double space_amp = 0;
  Ledger::Audit audit;
  std::string guard;  ///< empty when valid
  std::vector<std::string> problems;

  HistStat histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? HistStat{} : it->second;
  }
  /// Commits per second from the window's start to its last commit: the
  /// window's transactions finish a little after its end, and in an open
  /// loop committed / length would only restate the offered rate.
  double tps() const {
    Micros last = start;
    for (Micros done : s.commit_done) last = std::max(last, done);
    return ratio(static_cast<double>(s.committed), static_cast<double>(last - start) / 1e6);
  }
  double outage_ms() const {
    std::vector<Micros> done = s.commit_done;
    std::sort(done.begin(), done.end());
    Micros gap = 0;
    for (std::size_t i = 1; i < done.size(); ++i) gap = std::max(gap, done[i] - done[i - 1]);
    return gap / 1000.0;
  }
  double cpu_us_per_txn() const {
    return ratio(static_cast<double>(after.cpu - before.cpu), static_cast<double>(s.committed));
  }
};

/// The workload's validity guard applied to what a window observed.
std::string guard_verdict(const WorkloadSpec& spec, const Window& w) {
  auto delta = [&](const std::string& c) { return w.after.counter(c) - w.before.counter(c); };
  if (spec.name == "write-heavy") {
    std::map<std::string, RegionFiles> files;
    for (const auto& [region, paths] : w.before.region_files) files[region].before = paths;
    for (const auto& [region, paths] : w.after.region_files) files[region].after = paths;
    return write_heavy_guard(files);
  }
  if (spec.name == "read-scan") {
    return read_scan_guard(delta("kv.cache.hits"), delta("kv.cache.misses"),
                           delta("kv.cache.evictions"));
  }
  if (spec.crash_at <= 0) return {};
  FailoverObservation o;
  o.crashed = w.crash_at != 0;
  o.target_tps = spec.target_tps;
  o.replayed_writesets =
      w.recovered.rm.writesets_replayed_server - w.before.rm.writesets_replayed_server;
  const Micros from = w.crash_at - tfr::seconds(1);
  std::vector<Micros> late;
  for (std::size_t i = 0; i < w.s.lateness.size(); ++i) {
    const Micros due = w.s.lateness_due[i];
    if (due >= from && due < w.crash_at) late.push_back(w.s.lateness[i]);
  }
  o.pre_crash_lateness_p99_ms = percentile(late, 99) / 1000.0;
  for (Micros done : w.s.commit_done) o.pre_crash_tps += done >= from && done < w.crash_at ? 1 : 0;
  return failover_guard(o);
}

// --- set-up ------------------------------------------------------------------

/// Start a testbed and bring `usertable` to a loaded, flushed, cache-warm
/// state: a parallel transactional load (500 rows per transaction), a
/// memstore flush, and one full scan of every region.
tfr::Status set_up(const WorkloadSpec& spec, std::uint64_t seed, Ledger& ledger,
                   std::unique_ptr<Testbed>& out) {
  out = std::make_unique<Testbed>(spec.config);
  Testbed& bed = *out;
  TFR_RETURN_IF_ERROR(bed.start());
  TFR_RETURN_IF_ERROR(bed.create_table(kTable, spec.rows, spec.regions));

  constexpr std::uint64_t kBatch = 500;
  constexpr int kLoaders = 4;
  const std::uint64_t batches = (spec.rows + kBatch - 1) / kBatch;
  std::atomic<std::uint64_t> next{0};
  std::mutex error_mutex;
  tfr::Status error = tfr::Status::ok();
  parallel(kLoaders, [&](int) {
    for (std::uint64_t b = next++; b < batches; b = next++) {
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + b);
      tfr::Transaction txn = bed.client().begin(kTable);
      std::vector<std::pair<std::string, std::string>> rows;
      for (std::uint64_t i = b * kBatch; i < std::min(spec.rows, (b + 1) * kBatch); ++i) {
        rows.emplace_back(Testbed::row_key(i), make_value(rng, kValueSize));
        txn.put(rows.back().first, kColumn, rows.back().second);
      }
      auto committed = txn.commit();
      if (!committed.is_ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = committed.status();
        return;
      }
      for (const auto& [row, value] : rows) ledger.record(row, committed.value(), value);
    }
  });
  TFR_RETURN_IF_ERROR(error);
  if (!bed.client().wait_flushed(tfr::seconds(120))) {
    return tfr::Status::timeout("load did not drain");
  }
  TFR_RETURN_IF_ERROR(bed.flush_all_memstores());

  const auto regions = bed.master().table_regions(kTable);
  std::atomic<std::size_t> next_region{0};
  parallel(kLoaders, [&](int) {
    for (std::size_t r = next_region++; r < regions.size(); r = next_region++) {
      const auto& d = regions[r].descriptor;
      tfr::Transaction txn = bed.client().begin(kTable);
      auto cells = txn.scan(d.start_key, d.end_key, 0);
      txn.abort();
      if (!cells.is_ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = cells.status();
      }
    }
  });
  return error;
}

// --- the measured window -----------------------------------------------------

class Measurement {
 public:
  Measurement(const WorkloadSpec& spec, Testbed& bed, Ledger& ledger, std::uint64_t seed,
              Micros window, bool trace)
      : spec_(spec), bed_(bed), ledger_(ledger), seed_(seed), window_(window), trace_(trace) {}

  /// drive(), then settle(), then the workload's guard.
  Window run();

 private:
  /// Run the load through warm-up and the window (crashing server 0 on
  /// schedule) and wait for recovery; returns what the window observed.
  Window drive();
  /// Drain the flush backlog, take the post-window snapshot, probe the idle
  /// servers, measure space and audit durability through a fresh client.
  void settle(Window& w);
  void worker(int index, Samples& s);
  void execute(const std::vector<Op>& ops, Samples& s, Micros due, bool measured);
  void sampler();
  void sample_levels();
  void probe(TxnGenerator& gen, std::vector<Micros>& out);

  const WorkloadSpec& spec_;
  Testbed& bed_;
  Ledger& ledger_;
  std::uint64_t seed_;
  Micros window_;
  bool trace_;

  Micros window_start_ = 0, window_end_ = 0;
  std::atomic<Micros> next_slot_{0};
  std::atomic<Micros> crash_at_{0};
  std::atomic<Micros> detected_at_{0};
  std::atomic<bool> stop_sampler_{false};
  Window w_;  // levels and probes are written by the sampler only, read after it joins
};

void Measurement::execute(const std::vector<Op>& ops, Samples& s, Micros due, bool measured) {
  const Micros started = now_micros();
  if (measured) {
    ++s.attempted;
    if (spec_.target_tps > 0) {
      s.lateness.push_back(started - due);
      s.lateness_due.push_back(due);
    }
  }
  auto note_wrong = [&](std::string what) {
    if (s.wrong.size() < 5) s.wrong.push_back(std::move(what));
  };
  for (int attempt = 1;; ++attempt) {
    const Micros a0 = now_micros();
    tfr::Transaction txn = bed_.client().begin(kTable);
    Micros in_calls = now_micros() - a0;
    if (measured && trace_) s.begin.push_back(in_calls);
    bool ok = true;
    std::uint64_t user_bytes = 0;
    for (const Op& op : ops) {
      const std::string row = Testbed::row_key(op.key);
      if (op.kind == Op::kUpdate) {
        txn.put(row, kColumn, op.value);
        user_bytes += row.size() + op.value.size();
        continue;
      }
      const Micros t = now_micros();
      if (op.kind == Op::kGet) {
        auto r = txn.get(row, kColumn);
        const Micros d = now_micros() - t;
        in_calls += d;
        if (measured) {
          ++s.get_calls;
          s.get.push_back(d);
        }
        if (!r.is_ok()) {
          note_wrong("get " + row + ": " + r.status().to_string());
          ok = false;
          break;
        }
        if (!r.value() || r.value()->size() != kValueSize) {
          note_wrong("get " + row + " returned no value or a wrong-sized one");
        }
      } else {
        auto r = txn.scan(row, "", kScanLimit);
        const Micros d = now_micros() - t;
        in_calls += d;
        if (measured) {
          ++s.scan_calls;
          s.scan.push_back(d);
        }
        if (!r.is_ok()) {
          note_wrong("scan " + row + ": " + r.status().to_string());
          ok = false;
          break;
        }
        // Rows are dense and never deleted: the scan must return exactly
        // the next min(limit, remaining) rows, in order. Rows this
        // transaction buffered beyond them may be merged in; ignore those.
        const std::uint64_t n = std::min<std::uint64_t>(kScanLimit, spec_.rows - op.key);
        const std::string last = Testbed::row_key(op.key + n - 1);
        std::uint64_t i = 0;
        bool ordered = true;
        for (const auto& cell : r.value()) {
          if (cell.row > last) break;
          ordered &= cell.row == Testbed::row_key(op.key + i) &&
                     cell.value.size() == kValueSize;
          ++i;
        }
        if (!ordered || i != n) note_wrong("scan from " + row + " returned wrong rows");
      }
    }
    if (!ok) {
      txn.abort();
      if (measured) ++s.failed;
      return;
    }
    const Micros c0 = now_micros();
    auto committed = txn.commit();
    const Micros done = now_micros();
    in_calls += done - c0;
    if (committed.is_ok()) {
      for (const Op& op : ops) {
        if (op.kind == Op::kUpdate) {
          ledger_.record(Testbed::row_key(op.key), committed.value(), op.value);
        }
      }
      if (measured) {
        ++s.committed;
        s.commit.push_back(done - c0);
        s.txn.push_back(done - due);
        s.commit_done.push_back(done);
        s.commit_wrote.push_back(user_bytes > 0);
        s.user_bytes += user_bytes;
        if (trace_) {
          s.self.push_back((done - a0) - in_calls);
          s.spanned_us += done - a0;
          s.txn_us += done - due;
        }
      }
      return;
    }
    if (committed.status().is_aborted() && attempt < kMaxAttempts) {
      if (measured) ++s.aborts;
      continue;
    }
    if (measured) ++s.failed;
    note_wrong("commit: " + committed.status().to_string());
    return;
  }
}

void Measurement::worker(int index, Samples& s) {
  TxnGenerator gen(spec_, seed_ * 1000003 + static_cast<std::uint64_t>(index) + 1);
  const Micros pace =
      spec_.target_tps > 0 ? static_cast<Micros>(std::llround(1e6 / spec_.target_tps)) : 0;
  for (;;) {
    Micros due = 0;
    if (pace > 0) {
      due = next_slot_.fetch_add(pace);
      if (due >= window_end_) break;
      sleep_until(due);
    } else {
      due = now_micros();
      if (due >= window_end_) break;
    }
    execute(gen.next_txn(), s, due, due >= window_start_);
  }
}

void Measurement::probe(TxnGenerator& gen, std::vector<Micros>& out) {
  const std::string row = Testbed::row_key(gen.next_key());
  auto loc = bed_.master().locate(kTable, row);
  if (!loc.is_ok()) return;
  tfr::RegionServer* server = bed_.master().server_stub(loc.value().server_id);
  if (server == nullptr || !server->alive()) return;
  const Micros t = now_micros();
  auto r = server->get(kTable, row, kColumn, bed_.tm().current_ts());
  if (r.is_ok()) out.push_back(now_micros() - t);
}

void Measurement::sample_levels() {
  Levels& l = w_.levels;
  const auto now_ts = static_cast<double>(bed_.tm().current_ts());
  l.flush_backlog.add(static_cast<double>(bed_.client().flush_backlog()));
  l.tf_lag.add(now_ts - static_cast<double>(bed_.client().tf()));
  l.tp_lag.add(now_ts - static_cast<double>(bed_.rm().global_tp()));
  l.log_retained.add(static_cast<double>(bed_.tm().log().stats().retained_records));
  double segments = 0, memstore_max = 0;
  for (int i = 0; i < bed_.cluster().num_servers(); ++i) {
    tfr::RegionServer& server = bed_.cluster().server(i);
    if (!server.alive()) continue;
    segments += static_cast<double>(server.wal().stats().live_segments);
    for (const auto& name : server.region_names()) {
      if (auto region = server.region(name)) {
        l.store_files.add(static_cast<double>(region->store_file_count()));
        memstore_max = std::max(memstore_max, static_cast<double>(region->memstore_bytes()));
      }
    }
  }
  l.memstore_bytes.add(memstore_max);
  l.wal_segments.add(segments);
}

void Measurement::sampler() {
  TxnGenerator probe_keys(spec_, seed_ ^ 0x9b0be5ULL);
  const std::string victim = bed_.cluster().server(0).id();
  for (int tick = 1; !stop_sampler_.load(); ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Micros now = now_micros();
    if (crash_at_.load() != 0 && detected_at_.load() == 0) {
      const auto live = bed_.master().live_servers();
      if (std::find(live.begin(), live.end(), victim) == live.end()) detected_at_.store(now);
    }
    if (now < window_start_ || now >= window_end_) continue;
    if (tick % 4 == 0) sample_levels();
    if (tick % 10 == 0) probe(probe_keys, w_.probe_loaded);
  }
}

Window Measurement::run() {
  Window w = drive();
  settle(w);
  w.guard = guard_verdict(spec_, w);
  if (!w.guard.empty()) w.problems.push_back("invalid run: " + w.guard);
  return w;
}

Window Measurement::drive() {
  const Micros start = now_micros();
  window_start_ = start + spec_.warmup;
  window_end_ = window_start_ + window_;
  next_slot_.store(start);
  w_.start = window_start_;
  w_.end = window_end_;
  w_.length = window_;

  std::vector<Samples> per(static_cast<std::size_t>(kLoadThreads));
  std::vector<std::thread> threads;
  for (int i = 0; i < kLoadThreads; ++i) {
    threads.emplace_back([this, i, &per] { worker(i, per[static_cast<std::size_t>(i)]); });
  }
  std::thread probe_thread;
  if (trace_) probe_thread = std::thread([this] { sampler(); });

  sleep_until(window_start_);
  Snapshot before = take_snapshot(bed_);
  tfr::reset_global_histograms();
  if (spec_.crash_at > 0) {
    sleep_until(window_start_ + static_cast<Micros>(spec_.crash_at * static_cast<double>(window_)));
    const Micros at = now_micros();
    if (spec_.isolate_before_crash > 0) {
      // A remote client never sees a crashed server's internals, only
      // requests that go unanswered: cut it off from every node (requests
      // are refused, acks of those already inside it are lost and retried),
      // let those finish, then stop it. The session lapses from the cut.
      const std::string victim = bed_.cluster().server(0).id();
      const int cut = bed_.fault().add_partition(tfr::PartitionRule{victim, "", true});
      sleep_until(at + spec_.isolate_before_crash);
      bed_.crash_server(0);
      bed_.fault().heal_partition(cut);
    } else {
      bed_.crash_server(0);
    }
    crash_at_.store(at);
  }
  sleep_until(window_end_);
  Snapshot after = take_snapshot(bed_);
  for (const auto& [name, h] : tfr::global_histogram_snapshot()) {
    w_.histograms[name] = HistStat{static_cast<std::int64_t>(h->count()), h->mean(),
                                   static_cast<double>(h->percentile(50)),
                                   static_cast<double>(h->percentile(99)),
                                   static_cast<double>(h->max())};
  }

  for (auto& t : threads) t.join();
  std::fprintf(stderr, "perfbench: window done (%s)\n", trace_ ? "traced" : "untraced");
  if (spec_.crash_at > 0) {
    bed_.wait_for_recovery();
    // The sampler keeps watching until the master has noticed the crash.
    const Micros give_up = now_micros() + tfr::seconds(10);
    while (trace_ && detected_at_.load() == 0 && now_micros() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop_sampler_.store(true);
  if (probe_thread.joinable()) probe_thread.join();

  Window w = std::move(w_);
  w.before = std::move(before);
  w.after = std::move(after);
  for (auto& s : per) w.s.merge(std::move(s));
  for (auto& what : w.s.wrong) w.problems.push_back("wrong result: " + what);
  w.crash_at = crash_at_.load();
  w.detected_at = detected_at_.load();
  return w;
}

void Measurement::settle(Window& w) {
  if (!bed_.client().wait_flushed(tfr::seconds(60))) {
    w.problems.push_back("flush backlog did not drain after the window");
  }
  w.recovered = take_snapshot(bed_);
  if (w.crash_at != 0) {
    w.split_ms = static_cast<double>(w.recovered.gauge("master.last_split_us")) / 1000.0;
    w.reassign_replay_ms = static_cast<double>(w.recovered.gauge("master.last_replay_us")) / 1000.0;
  }
  w.region_count = w.recovered.assignment.size();

  if (trace_) {
    TxnGenerator probe_keys(spec_, seed_ ^ 0x9b0be5ULL);  // the loaded probes' key sequence
    for (std::size_t i = 0; i < std::max<std::size_t>(w.probe_loaded.size(), 50); ++i) {
      probe(probe_keys, w.probe_idle);
    }
  }

  // Space: every durable byte under the data and WAL trees per live user byte.
  std::uint64_t stored = 0;
  for (const char* prefix : {"/data/", "/wal/"}) {
    for (const auto& path : bed_.dfs().list(prefix)) {
      stored += bed_.dfs().durable_size(path).value_or(0);
    }
  }
  const double live = static_cast<double>(spec_.rows) *
                      static_cast<double>(Testbed::row_key(0).size() + kValueSize);
  w.space_amp = ratio(static_cast<double>(stored), live);

  // Durability audit through a fresh client at the latest snapshot.
  auto fresh = bed_.add_client();
  if (!fresh.is_ok()) {
    w.problems.push_back("audit client: " + fresh.status().to_string());
  } else {
    w.audit = ledger_.audit(*fresh.value(), kTable);
    std::fprintf(stderr, "perfbench: audit read back %llu rows, %llu differ\n",
                 static_cast<unsigned long long>(w.audit.checked),
                 static_cast<unsigned long long>(w.audit.mismatches));
    if (w.audit.mismatches != 0 || w.audit.checked != ledger_.size()) {
      w.problems.push_back("durability audit: " + std::to_string(w.audit.mismatches) + " of " +
                           std::to_string(w.audit.checked) + " rows differ; first: " +
                           w.audit.first_mismatch);
    }
  }
}

// --- reporting -----------------------------------------------------------------

std::string registry_json(const Window& w) {
  JsonObject counters, gauges, histograms;
  for (const auto& [name, v] : w.after.counters) {
    const std::int64_t d = v - w.before.counter(name);
    if (d != 0) counters.integer(name, d);
  }
  for (const auto& [name, v] : w.after.gauges) {
    const std::int64_t delta = v - w.before.gauge(name);
    gauges.raw(name, JsonObject().integer("end", v).integer("delta", delta).str());
  }
  for (const auto& [name, h] : w.histograms) {
    histograms.raw(name, JsonObject()
                             .integer("count", h.count)
                             .num("mean", h.mean)
                             .num("p50", h.p50)
                             .num("p99", h.p99)
                             .num("max", h.max)
                             .str());
  }
  return JsonObject()
      .raw("counters", counters.str())
      .raw("gauges", gauges.str())
      .raw("histograms", histograms.str())
      .str();
}

std::vector<Metric> end_to_end_metrics(const Window& w, double setup_s) {
  const Samples& s = w.s;
  auto p = [](const std::vector<Micros>& v, double q) { return percentile(v, q) / 1000.0; };
  return {
      {"setup_s", setup_s, "s"},
      {"txn_tps", w.tps(), "1/s"},
      {"txn_p50_ms", p(s.txn, 50), "ms"},
      {"txn_p99_ms", p(s.txn, 99), "ms"},
      {"commit_p50_ms", p(s.commit, 50), "ms"},
      {"get_p50_ms", p(s.get, 50), "ms"},
      {"scan_p50_ms", p(s.scan, 50), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const Window& w, const Window& untraced) {
  const Samples& s = w.s;
  const Snapshot& b = w.before;
  const Snapshot& a = w.after;
  auto d = [&](const std::string& counter) {
    return static_cast<double>(a.counter(counter) - b.counter(counter));
  };
  auto dd = [](std::int64_t after, std::int64_t before) {
    return static_cast<double>(after - before);
  };
  const double reads = static_cast<double>(s.get_calls + s.scan_calls);
  const double commits = static_cast<double>(s.committed);
  double rw_commits = 0, rw_done_in_window = 0;
  for (std::size_t i = 0; i < s.commit_done.size(); ++i) {
    if (!s.commit_wrote[i]) continue;
    rw_commits += 1;
    rw_done_in_window += s.commit_done[i] >= w.start && s.commit_done[i] < w.end ? 1 : 0;
  }
  const HistStat sync_wait = w.histogram("log.sync_wait");
  const HistStat batch = w.histogram("log.batch_size");

  // Read-only commits that still appended to the TM log: appends in the
  // window beyond the read-write commits the load completed in it.
  const double appends = dd(a.log.appends, b.log.appends);
  const double tm_commits = dd(a.tm.commits, b.tm.commits);
  const double conflicts = dd(a.tm.aborts_conflict, b.tm.aborts_conflict);

  std::vector<double> server_delta;
  for (std::size_t i = 0; i < a.server_ops.size(); ++i) {
    const auto ops = static_cast<double>(a.server_ops[i] - b.server_ops[i]);
    server_delta.push_back(std::max(0.0, ops));
  }
  double ops_sum = 0, ops_max = 0;
  for (double v : server_delta) ops_sum += v, ops_max = std::max(ops_max, v);
  const double imbalance = ratio(ops_max, ops_sum / static_cast<double>(server_delta.size()));

  const Snapshot& r = w.recovered;
  const double replayed = dd(r.rm.writesets_replayed_server, b.rm.writesets_replayed_server);
  const double muts = dd(r.rc.mutations_replayed, b.rc.mutations_replayed);
  const double skipped = dd(r.rc.mutations_skipped, b.rc.mutations_skipped);
  double moved = 0;
  for (const auto& [region, server] : r.assignment) {
    auto it = b.assignment.find(region);
    moved += (it == b.assignment.end() || it->second != server) ? 1 : 0;
  }
  const double detect_ms = w.crash_at != 0 && w.detected_at != 0
                               ? static_cast<double>(w.detected_at - w.crash_at) / 1000.0
                               : 0;
  const double outage = w.outage_ms();

  auto p = [](const std::vector<Micros>& v, double q) { return percentile(v, q); };
  return {
      {"ycsb.lateness_p99_ms", p(s.lateness, 99) / 1000.0, "ms"},
      {"client.begin_us", p(s.begin, 50), "us"},
      {"client.txn_self_us", p(s.self, 50), "us"},
      {"client.flush_backlog", w.levels.flush_backlog.max, "count"},
      {"client.flush_backlog_mean", w.levels.flush_backlog.mean(), "count"},
      {"client.tf_lag", w.levels.tf_lag.max, "ts"},
      {"txn.log_sync_wait_p50_ms", sync_wait.p50 / 1000.0, "ms"},
      {"txn.log_sync_wait_p99_ms", sync_wait.p99 / 1000.0, "ms"},
      {"txn.log_batch_mean", batch.mean, "count"},
      {"txn.readonly_log_appends", std::max(0.0, appends - rw_done_in_window), "count"},
      {"txn.conflict_abort_share", ratio(conflicts, tm_commits + conflicts), "ratio"},
      {"txn.log_retained_txns", w.levels.log_retained.max, "count"},
      {"txn.failed_share",
       ratio(static_cast<double>(s.aborts + s.failed), static_cast<double>(s.attempted + s.aborts)),
       "ratio"},
      {"kv.client.route_miss_ratio",
       ratio(d("kv.route_misses"), d("kv.route_hits") + d("kv.route_misses")), "ratio"},
      {"kv.client.read_retries_per_get", ratio(d("kv.read_retries"), reads), "ratio"},
      {"kv.client.slices_per_rpc", ratio(d("kv.batch_apply_slices"), d("kv.batch_apply_rpcs")),
       "count"},
      {"kv.client.flush_retries_per_writeset", ratio(d("kv.flush_retries"), rw_commits), "ratio"},
      {"kv.server.get_us_loaded", p(w.probe_loaded, 50), "us"},
      {"kv.server.get_us_idle", p(w.probe_idle, 50), "us"},
      {"kv.server.load_imbalance", imbalance, "ratio"},
      {"kv.region.store_files_mean", w.levels.store_files.mean(), "count"},
      {"kv.region.store_files_max", w.levels.store_files.max, "count"},
      {"kv.region.pruned_per_get", ratio(d("kv.sf_bloom_skips") + d("kv.sf_range_skips"), reads),
       "ratio"},
      {"kv.region.memstore_bytes_max", w.levels.memstore_bytes.max, "B"},
      {"kv.region.count", static_cast<double>(w.region_count), "count"},
      {"kv.cache.hit_ratio", ratio(d("kv.cache.hits"), d("kv.cache.hits") + d("kv.cache.misses")),
       "ratio"},
      {"kv.cache.evictions_per_op", ratio(d("kv.cache.evictions"), reads), "ratio"},
      {"kv.cache.single_flight_waits", d("kv.cache.single_flight_waits"), "count"},
      {"kv.wal.records_per_sync",
       ratio(dd(a.wal_synced_records, b.wal_synced_records), dd(a.wal_syncs, b.wal_syncs)),
       "count"},
      {"kv.wal.live_segments", w.levels.wal_segments.max, "count"},
      {"kv.master.wal_split_ms", w.split_ms, "ms"},
      {"kv.master.reassign_replay_ms", w.reassign_replay_ms, "ms"},
      {"kv.master.regions_moved", moved, "count"},
      {"dfs.block_reads_per_get", ratio(dd(a.dfs.block_reads, b.dfs.block_reads), reads), "ratio"},
      {"dfs.bytes_read_per_op", ratio(dd(a.dfs.bytes_read, b.dfs.bytes_read), reads), "B"},
      {"dfs.syncs_per_commit", ratio(dd(a.dfs.syncs, b.dfs.syncs), commits), "ratio"},
      {"dfs.bytes_synced_per_user_byte",
       ratio(dd(a.dfs.bytes_synced, b.dfs.bytes_synced), static_cast<double>(s.user_bytes)),
       "ratio"},
      {"dfs.space_amp", w.space_amp, "ratio"},
      {"coord.detect_ms", detect_ms, "ms"},
      {"recovery.replayed_writesets", replayed, "count"},
      {"recovery.replay_us_per_writeset", ratio(w.reassign_replay_ms * 1000.0, replayed), "us"},
      {"recovery.replay_useful_ratio", ratio(muts, muts + skipped), "ratio"},
      {"recovery.tp_lag", w.levels.tp_lag.max, "ts"},
      {"outage_ms", outage, "ms"},
      {"cpu_us_per_txn", untraced.cpu_us_per_txn(), "us"},
      {"commit_p99_ms", p(s.commit, 99) / 1000.0, "ms"},
      {"get_p99_ms", p(s.get, 99) / 1000.0, "ms"},
      {"scan_p99_ms", p(s.scan, 99) / 1000.0, "ms"},
      {"trace.outage_accounted_share",
       w.crash_at != 0 ? ratio(detect_ms + w.split_ms + w.reassign_replay_ms, outage) : 0, "ratio"},
      {"trace.txn_accounted_share",
       ratio(static_cast<double>(s.spanned_us), static_cast<double>(s.txn_us)), "ratio"},
      {"trace.overhead_txn_p50_ms", (p(s.txn, 50) - p(untraced.s.txn, 50)) / 1000.0, "ms"},
      {"trace.overhead_tps", w.tps() - untraced.tps(), "1/s"},
      {"trace.overhead_cpu_us_per_txn", w.cpu_us_per_txn() - untraced.cpu_us_per_txn(), "us"},
  };
}

std::string window_json(const Window& w) {
  const Samples& s = w.s;
  JsonObject samples;
  samples.integer("txn", static_cast<std::int64_t>(s.txn.size()))
      .integer("commit", static_cast<std::int64_t>(s.commit.size()))
      .integer("get", static_cast<std::int64_t>(s.get.size()))
      .integer("scan", static_cast<std::int64_t>(s.scan.size()))
      .integer("aborts", static_cast<std::int64_t>(s.aborts))
      .integer("failed", static_cast<std::int64_t>(s.failed));
  return JsonObject()
      .num("window_s", static_cast<double>(w.length) / 1e6)
      .raw("samples", samples.str())
      .num("outage_ms", w.outage_ms())
      .str("guard", w.guard.empty() ? "valid" : w.guard)
      .raw("audit", JsonObject()
                        .integer("checked", static_cast<std::int64_t>(w.audit.checked))
                        .integer("mismatches", static_cast<std::int64_t>(w.audit.mismatches))
                        .str("first", w.audit.first_mismatch)
                        .str())
      .raw("registry", registry_json(w))
      .str();
}

}  // namespace

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const auto& m : metrics) {
    o.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).str());
  }
  return o.str();
}

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool trace) {
  RunResult result;
  const auto window = static_cast<Micros>(seconds * 1e6);
  const int setups = trace ? 1 : spec.setups;
  auto measure = [&](bool traced, std::vector<double>& setup_times, Window& out) -> bool {
    std::unique_ptr<Testbed> bed;
    std::unique_ptr<Ledger> ledger;
    for (int i = 0; i < setups; ++i) {
      if (bed) bed->stop();
      bed.reset();
      ledger = std::make_unique<Ledger>();
      const Micros t0 = now_micros();
      tfr::Status st = set_up(spec, seed, *ledger, bed);
      if (!st.is_ok()) {
        result.problems.push_back("set-up failed: " + st.to_string());
        return false;
      }
      setup_times.push_back(static_cast<double>(now_micros() - t0) / 1e6);
      std::fprintf(stderr, "perfbench: %s set-up %d/%d took %.2f s\n", spec.name.c_str(), i + 1,
                   setups, setup_times.back());
    }
    out = Measurement(spec, *bed, *ledger, seed, window, traced).run();
    bed->stop();
    return true;
  };

  std::vector<double> setup_times;
  Window primary, untraced;
  bool ok = measure(false, setup_times, trace ? untraced : primary);
  if (ok && trace) ok = measure(true, setup_times, primary);
  if (!ok) {
    result.correct = false;
    return result;
  }

  result.attempted = primary.s.attempted;
  result.failed = primary.s.failed;
  result.metrics = trace ? per_layer_metrics(primary, untraced)
                         : end_to_end_metrics(primary, median(setup_times));
  for (const Window* w : {&untraced, &primary}) {
    if (w->length == 0) continue;
    result.problems.insert(result.problems.end(), w->problems.begin(), w->problems.end());
  }
  result.correct = result.problems.empty();

  JsonObject setup_json;
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    setup_json.num(std::to_string(i), setup_times[i]);
  }
  JsonObject report;
  report.str("workload", spec.name)
      .integer("seed", static_cast<std::int64_t>(seed))
      .boolean("trace", trace)
      .boolean("correct", result.correct)
      .raw("setup_s", setup_json.str())
      .raw("metrics", metrics_json(result.metrics))
      .raw("window", window_json(primary));
  if (trace) report.raw("untraced_window", window_json(untraced));
  std::string problems = "[";
  for (const auto& p : result.problems) {
    problems += (problems.size() > 1 ? "," : "") + JsonObject::quote(p);
  }
  report.raw("problems", problems + "]");
  result.report = report.str();
  return result;
}

}  // namespace perfbench
