// tfr_perfbench — the repository benchmark binary.
//
//   tfr_perfbench --workload <write-heavy|read-scan|failover|failover-inflight> --seed <n>
//                 --seconds <s> --trace <0|1>
//   tfr_perfbench --selftest
//
// Prints one "report " line with the full result (registry snapshot,
// guard, audit) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when the audit or the workload's validity guard fails, 2 on bad
// arguments.
#include <sys/prctl.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "perfbench/src/json.h"
#include "perfbench/src/runner.h"
#include "src/common/logging.h"

namespace perfbench {
int run_selftests();
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "tfr_perfbench: %s\nusage: tfr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       tfr_perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  tfr::set_log_level(tfr::LogLevel::kERROR);
  // The latency model is thousands of sub-millisecond sleeps per second; the
  // default 50 us timer slack (inherited by every thread started later)
  // would add to each one an overshoot that depends on the host's load.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return run_selftests();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') seconds = 0;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto spec = workload_spec(workload);
  if (!spec) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (!(seconds >= 1 && seconds <= 600)) return usage("--seconds must be in [1, 600]");
  if (trace < 0) return usage("--trace must be 0 or 1");

  const RunResult r = run_workload(*spec, seed, seconds, trace == 1);
  for (const auto& p : r.problems) std::fprintf(stderr, "tfr_perfbench: %s\n", p.c_str());
  std::printf("report %s\n", r.report.c_str());
  std::printf("%s\n", JsonObject()
                          .boolean("correct", r.correct)
                          .integer("attempted", static_cast<std::int64_t>(r.attempted))
                          .integer("failed", static_cast<std::int64_t>(r.failed))
                          .raw("metrics", metrics_json(r.metrics))
                          .str()
                          .c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
