// Workload characterization — beyond the paper's single transaction type:
// the six standard YCSB core mixes (transactionalized) plus the paper's
// 10-op 50/50 mix, all against the same 2-server deployment with
// asynchronous persistence. Not a figure from the paper; included so users
// can see how the system behaves across read/write/scan/insert ratios.
#include "bench/bench_common.h"

using namespace tfr;
using namespace tfr::bench;

int main() {
  print_header("Workload characterization (YCSB core mixes A-F + the paper's mix)",
               "supplementary: not a figure in the paper");

  constexpr std::uint64_t kRows = 20'000;
  Testbed bed(paper_config(2, false));
  if (auto s = prepare(bed, kRows, 4); !s.is_ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", s.to_string().c_str());
    return 1;
  }

  const Micros point_duration = scaled(seconds(5));
  struct Row {
    const char* name;
    WorkloadConfig cfg;
  };
  WorkloadConfig paper_mix;
  paper_mix.num_rows = kRows;
  std::vector<Row> rows = {
      {"paper (10 ops, 50/50 r/u)", paper_mix},
      {"A (update heavy, zipf)", ycsb_core_workload('a', kRows)},
      {"B (read mostly, zipf)", ycsb_core_workload('b', kRows)},
      {"C (read only, zipf)", ycsb_core_workload('c', kRows)},
      {"D (read latest, inserts)", ycsb_core_workload('d', kRows)},
      {"E (short scans, inserts)", ycsb_core_workload('e', kRows)},
      {"F (read-modify-write)", ycsb_core_workload('f', kRows)},
  };

  std::printf("%-28s %-10s %-10s %-10s %-10s\n", "workload", "tps", "mean_ms", "p99_ms",
              "aborts");
  double read_only_tps = 0, update_heavy_tps = 0;
  for (auto& row : rows) {
    DriverConfig d;
    d.threads = 50;
    d.duration = point_duration;
    YcsbDriver driver(bed, row.cfg, d);
    const auto r = driver.run();
    std::printf("%-28s %-10.1f %-10.2f %-10.2f %-10llu\n", row.name, r.throughput_tps,
                r.mean_latency_ms, r.p99_latency_ms,
                static_cast<unsigned long long>(r.aborted));
    if (std::string(row.name).front() == 'C') read_only_tps = r.throughput_tps;
    if (std::string(row.name).front() == 'A') update_heavy_tps = r.throughput_tps;
    if (!bed.client().wait_flushed(seconds(120))) {
      std::fprintf(stderr, "flush backlog did not drain after %s\n", row.name);
    }
  }

  std::printf("\n-- shape check --\n");
  std::printf("read-only (C) outruns update-heavy (A): %.1f vs %.1f tps %s\n", read_only_tps,
              update_heavy_tps,
              read_only_tps > update_heavy_tps ? "[OK: only read-write commits cost a log write]"
                                               : "[UNEXPECTED]");
  return 0;
}
