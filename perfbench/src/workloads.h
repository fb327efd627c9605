// The three benchmark workloads and the metrics each run reports.
//
//   explore  default-spec standalone campaigns, 1 worker, process pinned to one CPU.
//   prepare  preparation-heavy campaigns (fuzz to saturation, shallow exploration), pinned.
//   fleet    a closed loop of client campaigns through an in-process FleetServer over HTTP,
//            one worker per CPU.
//
// An untraced run (trace = false) reports the end-to-end metrics; a traced run reports the
// per-layer metrics, prints the per-layer self-time breakdown of its traced phase, and the
// tracing overhead against an untraced pass over the same campaigns.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Where fleet roots and sockets live (inside the checkout).
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
  std::string record_json;  // Run record: build, host, pinning, storage, drift.
  std::string trace_json;   // Traced runs: the per-layer breakdown.
  std::vector<std::string> errors;
};

bool IsWorkload(const std::string& name);
RunOutput RunWorkload(const RunArgs& args);

// The run's result line: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
std::string ResultJson(const RunOutput& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
