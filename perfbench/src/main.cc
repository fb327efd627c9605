// sb_perfbench: the repository benchmark binary.
//
//   sb_perfbench --workload explore|prepare|fleet --seed N --seconds S --trace 0|1
//   sb_perfbench --check fleet-standalone --seed N
//
// Prints a run-record line ("perfbench-record {...}"), for traced runs the per-layer
// breakdown ("perfbench-trace {...}"), and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Exit code 0 when the run completed (whether or not every operation verified), 2 on bad
// arguments. The --check mode (used by perfbench/test_smoke.py) runs two fleet campaigns
// and the same specs standalone, and exits 0 only when their masked reports are equal.
// Run it from the checkout root: per-run state lives under .bench_build/.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: sb_perfbench --workload explore|prepare|fleet --seed N --seconds S "
               "--trace 0|1\n"
               "       sb_perfbench --check fleet-standalone --seed N\n");
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string check;
  double seed = -1;
  double trace = -1;
  args.seconds = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = argv[i + 1];
    } else if (flag == "--seed") {
      ok = ParseNumber(argv[i + 1], &seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(argv[i + 1], &args.seconds);
    } else if (flag == "--check") {
      check = argv[i + 1];
    } else if (flag == "--trace") {
      ok = ParseNumber(argv[i + 1], &trace);
    } else {
      ok = false;
    }
    if (!ok) {
      Usage();
      return 2;
    }
  }
  args.work_dir = ".bench_build/perfbench-run-" + std::to_string(getpid());
  if (check == "fleet-standalone" && seed >= 0) {
    std::vector<snowboard::CampaignSpec> specs = {
        perfbench::FleetSpec(static_cast<uint64_t>(seed), 0),
        perfbench::FleetSpec(static_cast<uint64_t>(seed), 1)};
    std::string error;
    if (!perfbench::FleetMatchesStandalone(specs, 2, args.work_dir, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    std::printf("fleet reports match standalone runs\n");
    return 0;
  }
  if (argc % 2 != 1 || !perfbench::IsWorkload(args.workload) || seed < 0 ||
      args.seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  args.seed = static_cast<uint64_t>(seed);
  args.trace = trace == 1;

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: warning: built without NDEBUG; timings are not comparable\n");
#endif
  perfbench::RunOutput out = perfbench::RunWorkload(args);
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("perfbench-record %s\n", out.record_json.c_str());
  if (!out.trace_json.empty()) {
    std::printf("perfbench-trace %s\n", out.trace_json.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(out).c_str());
  std::fflush(stdout);
  return 0;
}
