// Self-tests of the benchmark's correctness checks: each check is shown to
// pass on a sound run and to fail on the defect it names. Tiny runs of the
// workloads, about half a minute in all:
//   tfr_perfbench --selftest
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/runner.h"
#include "src/testbed/testbed.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Checks that a tiny run's guard finds it valid (`want_problem` empty) or
/// that it fails with a problem mentioning `want_problem`; prints the
/// problems otherwise. Only the guard is under test here: the audit has its
/// own test above.
void expect_run(const RunResult& r, const std::string& want_problem, const std::string& what) {
  const std::string needle = want_problem.empty() ? "invalid run" : want_problem;
  bool found = false;
  for (const auto& p : r.problems) found |= p.find(needle) != std::string::npos;
  const bool ok = want_problem.empty() ? !found : found;
  expect(ok, what);
  if (!ok) {
    for (const auto& p : r.problems) std::printf("       problem: %s\n", p.c_str());
  }
}

/// A small, short variant of a named workload (same latency model).
WorkloadSpec tiny(const std::string& name) {
  WorkloadSpec spec = *workload_spec(name);
  spec.rows = 3000;
  spec.regions = 4;
  spec.setups = 1;
  return spec;
}

void audit_catches_a_dropped_write() {
  std::printf("audit\n");
  tfr::TestbedConfig cfg = tfr::fast_test_config(2, 1);
  cfg.client.snapshot = tfr::SnapshotMode::kLatest;
  tfr::Testbed bed(cfg);
  bool ready = bed.start().is_ok() && bed.create_table("usertable", 100, 2).is_ok();
  Ledger ledger;
  for (int i = 0; ready && i < 100; ++i) {
    tfr::Transaction txn = bed.client().begin("usertable");
    const std::string row = tfr::Testbed::row_key(static_cast<std::uint64_t>(i));
    txn.put(row, "field0", "v" + std::to_string(i));
    auto ts = txn.commit();
    ready = ts.is_ok();
    if (ready) ledger.record(row, ts.value(), "v" + std::to_string(i));
  }
  ready = ready && bed.client().wait_flushed();
  expect(ready, "test table loaded");
  auto reader = bed.add_client();
  if (!ready || !reader.is_ok()) return;

  const Ledger::Audit clean = ledger.audit(*reader.value(), "usertable");
  expect(clean.checked == 100 && clean.mismatches == 0, "audit passes when every write landed");

  // Drop a write: the ledger holds it as acknowledged, the store never got it.
  tfr::Transaction dropped = bed.client().begin("usertable");
  dropped.put(tfr::Testbed::row_key(7), "field0", "never-flushed");
  dropped.abort();
  ledger.record(tfr::Testbed::row_key(7), bed.tm().current_ts() + 1, "never-flushed");
  const Ledger::Audit bad = ledger.audit(*reader.value(), "usertable");
  expect(bad.mismatches == 1 && bad.first_mismatch.find("user0000000007") != std::string::npos,
         "audit fails on a dropped write (" + bad.first_mismatch + ")");
  bed.stop();
}

void guard_units() {
  std::printf("guards (decision functions)\n");
  std::map<std::string, RegionFiles> files;
  files["r"] = RegionFiles{{"sf-1"}, {"sf-1", "sf-2"}};
  expect(!write_heavy_guard(files).empty(), "write-heavy: flush without compaction is invalid");
  files["r"] = RegionFiles{{"sf-1", "sf-2"}, {"sf-3"}};
  expect(write_heavy_guard(files).empty(), "write-heavy: flush + compaction is valid");
  expect(!read_scan_guard(10'000, 10, 0).empty(), "read-scan: 99.9% hits is invalid");
  expect(read_scan_guard(7'000, 3'000, 2'500).empty(), "read-scan: 70% hits is valid");
  FailoverObservation o{500, 150, 148, 3, true};
  expect(failover_guard(o).empty(), "failover: steady crash with replay is valid");
  o.replayed_writesets = 0;
  expect(!failover_guard(o).empty(), "failover: zero replayed write-sets is invalid");
  o = FailoverObservation{500, 150, 20, 3, true};
  expect(!failover_guard(o).empty(), "failover: crash during ramp-up is invalid");
}

void guards_on_real_runs() {
  std::printf("guards (tiny runs)\n");
  {
    WorkloadSpec spec = tiny("write-heavy");
    spec.config.cluster.server.memstore_flush_bytes = 2048;
    spec.config.cluster.server.compaction_file_threshold = 2;
    expect_run(run_workload(spec, 1, 1, false), "", "write-heavy with 2 KiB memstores is valid");
    spec.config.cluster.server.memstore_flush_bytes = 64ull << 20;
    expect_run(run_workload(spec, 1, 1, false), "flush/compaction",
               "write-heavy with 64 MiB memstores is invalid");
  }
  {
    WorkloadSpec spec = tiny("read-scan");
    spec.config.cluster.server.block_cache_bytes = 32 * 1024;
    expect_run(run_workload(spec, 1, 1, false), "", "read-scan with a 32 KiB cache is valid");
    spec.config.cluster.server.block_cache_bytes = 64ull << 20;
    expect_run(run_workload(spec, 1, 1, false), "fits in the cache",
               "read-scan with a 64 MiB cache is invalid");
  }
  {
    WorkloadSpec spec = tiny("failover");
    expect_run(run_workload(spec, 1, 3, false), "",
               "failover with writes before the crash is valid");
    spec = tiny("failover");
    spec.warmup = 0;
    spec.crash_at = 0.01;
    expect_run(run_workload(spec, 1, 3, false), "before load was steady",
               "failover crashing at the start is invalid");
  }
}

}  // namespace

int run_selftests() {
  audit_catches_a_dropped_write();
  guard_units();
  guards_on_real_runs();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
