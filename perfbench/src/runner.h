// One benchmark run: set up a testbed, drive the workload for a measured
// window, audit durability, check the validity guard, and turn what was
// observed at the program's public boundaries into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> problems;  ///< audit mismatches, guard failures, wrong reads
  std::string report;                 ///< full JSON report, registry snapshot included
};

/// Untraced (`trace` false): the end-to-end metrics, with set-up repeated
/// spec.setups times. Traced: an untraced and a traced measurement on fresh
/// testbeds, reporting the per-layer metrics and the tracing overhead.
RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool trace);

/// {"<name>": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace perfbench
