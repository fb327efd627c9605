// Multi-core explore-loop scaling matrix (BENCH_scaling.json, the tracked headline).
//
// Measures the steady-state concurrent-test execution stage — the loop the paper runs for
// 10 days on a 32-VM fleet — at 1/2/4/8 workers over a fixed prepared campaign, and
// reports, per point (each iteration is one RunSnowboardPipeline call on the default
// engine, seeded with the prepared PMC table and test list so that only exploration runs):
//   * trials_per_sec        — wall-clock trials/s of this run: a kIsRate counter under
//                             UseManualTime(), which google-benchmark divides by the
//                             steady_clock time each iteration reports (never CPU time).
//   * cpu_us_per_trial      — measured CPU cost of one trial, summed over ALL pool
//                             threads (getrusage RUSAGE_SELF), the contention-sensitive
//                             number the lock-free claim/aggregation work drives down.
//   * modeled_trials_per_sec— workers / cpu_seconds_per_trial: the throughput N truly
//                             parallel cores would sustain at this measured per-trial CPU
//                             cost. On a host with >= N CPUs this converges to
//                             trials_per_sec; on a CPU-limited host (see cpu_limited) it
//                             is the honest scaling number, because wall-clock time under
//                             N time-sliced workers measures the scheduler, not the code.
//   * scaling_x / efficiency— modeled_trials_per_sec relative to the 1-worker point, and
//                             that ratio divided by the worker count. Synchronization or
//                             cache-line contention added by parallelism shows up here as
//                             efficiency < 1 — it burns real, measured CPU; this is not a
//                             circular N/N identity.
//   * cpu_limited           — 1 when the host has fewer CPUs than workers (wall-clock
//                             trials_per_sec is then meaningless for scaling claims).
// Run the 1-worker point first (registration order does) — later points read its
// cpu_us_per_trial to compute scaling_x/efficiency; without it they report 0.
#include <sys/resource.h>

#include <chrono>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/snowboard/pipeline.h"
#include "src/util/counters.h"

namespace snowboard {
namespace {

constexpr size_t kTestBudget = 64;

// Process CPU seconds (user + system) across every thread, including pool workers.
double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// The campaign is prepared once (corpus, profiles, PMC table, test list); every scaling
// point executes the SAME test list, so the points differ only in worker count.
const CampaignSeeds& Seeds() {
  static const CampaignSeeds* seeds = [] {
    PreparedCampaign campaign = bench::CanonicalCampaign(kTestBudget);
    auto* s = new CampaignSeeds();
    s->pmcs = std::move(campaign.pmcs);
    s->tests = std::move(campaign.tests);
    return s;
  }();
  return *seeds;
}

double& OneWorkerCpuPerTrial() {
  static double cpu_per_trial = 0;
  return cpu_per_trial;
}

void BM_ExploreScaling(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const CampaignSeeds& seeds = Seeds();
  PipelineOptions options =
      bench::CanonicalOptions(Strategy::kSInsPair, kTestBudget, workers);

  uint64_t trials = 0;
  double cpu_seconds = 0;
  for (auto _ : state) {
    double cpu_start = CpuSeconds();
    auto wall_start = std::chrono::steady_clock::now();
    PipelineResult result = RunSnowboardPipeline(options, seeds);
    state.SetIterationTime(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                         wall_start)
                               .count());
    cpu_seconds += CpuSeconds() - cpu_start;
    trials += result.total_trials;
  }

  const double cpu_per_trial = trials > 0 ? cpu_seconds / static_cast<double>(trials) : 0;
  if (workers == 1 && cpu_per_trial > 0) {
    OneWorkerCpuPerTrial() = cpu_per_trial;
  }
  const double modeled =
      cpu_per_trial > 0 ? static_cast<double>(workers) / cpu_per_trial : 0;
  const double baseline_modeled =
      OneWorkerCpuPerTrial() > 0 ? 1.0 / OneWorkerCpuPerTrial() : 0;
  const double scaling = baseline_modeled > 0 ? modeled / baseline_modeled : 0;

  state.counters["trials_per_sec"] =
      benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["cpu_us_per_trial"] = benchmark::Counter(cpu_per_trial * 1e6);
  state.counters["modeled_trials_per_sec"] = benchmark::Counter(modeled);
  state.counters["scaling_x"] = benchmark::Counter(scaling);
  state.counters["efficiency"] =
      benchmark::Counter(workers > 0 ? scaling / static_cast<double>(workers) : 0);
  state.counters["cpu_limited"] = benchmark::Counter(
      std::thread::hardware_concurrency() < static_cast<unsigned>(workers) ? 1 : 0);
}
BENCHMARK(BM_ExploreScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace snowboard

int main(int argc, char** argv) {
  snowboard::bench::PrintHeader(
      "Multi-core explore-loop scaling (1/2/4/8-worker matrix; see EXPERIMENTS.md)");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  snowboard::bench::ReportEnvironment();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
