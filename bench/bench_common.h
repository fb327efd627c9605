// Shared setup for the bench binaries: a canonical corpus/campaign configuration so every
// table/figure is regenerated from the same inputs (the paper runs all strategies against
// one profiled corpus per kernel version).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "src/snowboard/pipeline.h"
#include "src/util/fs.h"

namespace snowboard {
namespace bench {

inline PipelineOptions CanonicalOptions(Strategy strategy, size_t budget, int workers) {
  PipelineOptions options;
  options.seed = 1;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 300;
  options.corpus.target_size = 80;
  options.strategy = strategy;
  options.max_concurrent_tests = budget;
  options.explorer.num_trials = 24;
  options.num_workers = workers;
  return options;
}

// The canonical prepared campaign, with its S-INS-PAIR test list cut at `budget`.
inline PreparedCampaign CanonicalCampaign(size_t budget = 0) {
  return PrepareCampaign(CanonicalOptions(Strategy::kSInsPair, budget, 1));
}

// Seeds for re-running strategies over one prepared corpus and PMC table (the paper runs
// every strategy against one profiled corpus): the engine skips fuzzing and profiling
// and generates each strategy's own test list.
inline CampaignSeeds CorpusAndPmcSeeds(const PreparedCampaign& campaign) {
  CampaignSeeds seeds;
  seeds.corpus = campaign.corpus;
  seeds.pmcs = campaign.pmcs;
  return seeds;
}

// Finds the Figure 1 l2tp publish PMC in an identified set; returns false if absent.
inline bool FindL2tpHint(const KernelVm& vm, const std::vector<Pmc>& pmcs, PmcKey* hint) {
  GuestAddr list_head = vm.globals().l2tp + 4;  // kL2tpListHead.
  for (const Pmc& pmc : pmcs) {
    if (pmc.key.write.addr == list_head && pmc.key.read.addr == list_head &&
        pmc.key.write.value != 0) {
      *hint = pmc.key;
      return true;
    }
  }
  return false;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              title);
}

// Bench hygiene: tags every benchmark JSON with the library's actual build type, the
// host's CPU budget, and the load average at launch, and warns loudly on stderr when the
// run is not trustworthy as a tracked number (debug build, or an already-loaded host).
// Checked-in BENCH_*.json files must say sb_build_type=release; earlier baselines were
// silently recorded from debug builds, which this context field makes impossible to miss.
// Call AFTER benchmark::Initialize (AddCustomContext is ignored before it).
inline void ReportEnvironment() {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  benchmark::AddCustomContext("sb_build_type", build_type);
  benchmark::AddCustomContext(
      "sb_hardware_concurrency", std::to_string(std::thread::hardware_concurrency()));
  double load1 = -1;
  if (std::optional<std::string> loadavg = ReadFileContents("/proc/loadavg")) {
    load1 = std::atof(loadavg->c_str());
    benchmark::AddCustomContext("sb_load_avg_1min", std::to_string(load1));
  }
  if (std::string("release") != build_type) {
    std::fprintf(stderr,
                 "\nWARNING: benchmarking a %s build of the snowboard library — numbers "
                 "are NOT comparable to tracked BENCH_*.json baselines. Reconfigure with "
                 "-DCMAKE_BUILD_TYPE=Release.\n\n",
                 build_type);
  }
  if (load1 > 1.5) {
    std::fprintf(stderr,
                 "\nWARNING: 1-minute load average is %.2f — a busy host skews timings; "
                 "results are tagged but should not be checked in.\n\n",
                 load1);
  }
}

}  // namespace bench
}  // namespace snowboard

#endif  // BENCH_BENCH_COMMON_H_
