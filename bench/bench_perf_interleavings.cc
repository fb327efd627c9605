// §5.4 reproduction — interleavings to expose.
//
// "We execute all 9 concurrent tests that found bugs ... with Snowboard and SKI. SKI
// requires 84 times more interleavings than Snowboard on average to expose the concurrency
// bug (826.29 interleavings/test for SKI, versus only 9.76 for Snowboard). Since Snowboard
// uses SKI for its fine-grained scheduling control, its advantage comes solely from its use
// of PMCs as scheduling hints and the scheduling algorithm."
//
// This bench regenerates the experiment: it takes the bug-triggering concurrent tests found
// by a campaign, re-runs each to exposure of ITS issue under (a) Algorithm 2 with the PMC
// hint and (b) SKI PCT-style unguided exploration, and reports per-test and average
// interleaving counts plus the ratio.
// Invoked with no arguments, the binary runs that experiment. Invoked with any
// google-benchmark flag (e.g. --benchmark_filter=BM_), it instead runs the registered
// microbenchmarks below, which quantify the dirty-page delta snapshot restore and the
// zero-allocation trial hot path (bytes moved per restore, trials/second). Every rate
// counter here is registered with UseRealTime(): trials/s is trials per wall second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <set>
#include <string>

#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/ski/baselines.h"
#include "src/util/trace.h"

namespace snowboard {
namespace {

struct BugTest {
  ConcurrentTest test;
  int issue_id;
};

int Run() {
  bench::PrintHeader("§5.4 — interleavings to expose: Snowboard (PMC hints) vs SKI");
  const int kMaxTrials = 4096;

  // Phase 1: run a campaign and harvest bug-triggering tests (one per issue).
  PipelineOptions options = bench::CanonicalOptions(Strategy::kSInsPair, 400, 4);
  const std::vector<ConcurrentTest> tests = PrepareCampaign(options).tests;

  std::vector<BugTest> bug_tests;
  {
    KernelVm vm;
    std::set<int> covered;
    for (size_t i = 0; i < tests.size() && bug_tests.size() < 9; i++) {
      ExplorerOptions probe;
      probe.num_trials = 24;
      probe.seed = options.explorer.seed + i * 1000003ull;
      ExploreOutcome outcome = ExploreConcurrentTest(vm, tests[i], nullptr, probe);
      int issue = 0;
      for (const RaceReport& race : outcome.races) {
        int id = ClassifyRace(race);
        issue = id > issue && id != 13 ? id : issue;  // Prefer non-ubiquitous issues.
      }
      for (const std::string& line : outcome.panic_messages) {
        int id = ClassifyConsoleLine(line);
        issue = id != 0 ? id : issue;
      }
      if (issue != 0 && covered.insert(issue).second) {
        bug_tests.push_back(BugTest{tests[i], issue});
      }
    }
  }
  std::printf("harvested %zu bug-triggering concurrent tests\n\n", bug_tests.size());
  std::printf("%-8s %-12s %-12s %s\n", "issue", "snowboard", "ski", "(interleavings to expose)");

  KernelVm vm;
  double snowboard_sum = 0;
  double ski_sum = 0;
  int both = 0;
  for (const BugTest& bug : bug_tests) {
    ExposeComparison comparison =
        CompareTrialsToExpose(vm, bug.test, bug.issue_id, kMaxTrials, /*seed=*/17);
    std::printf("#%-7d %-12s %-12s\n", bug.issue_id,
                comparison.snowboard_found
                    ? std::to_string(comparison.snowboard_trials).c_str()
                    : "not found",
                comparison.ski_found ? std::to_string(comparison.ski_trials).c_str()
                                     : ">budget");
    if (comparison.snowboard_found) {
      snowboard_sum += comparison.snowboard_trials;
      ski_sum += comparison.ski_found ? comparison.ski_trials : kMaxTrials;
      both++;
    }
  }
  if (both == 0) {
    std::printf("no comparable tests\n");
    return 1;
  }
  double snowboard_avg = snowboard_sum / both;
  double ski_avg = ski_sum / both;
  std::printf("\naverage interleavings/test: Snowboard %.2f vs SKI %.2f  (ratio %.1fx)\n",
              snowboard_avg, ski_avg, ski_avg / snowboard_avg);
  std::printf("paper: 9.76 vs 826.29 (84x). Shape check: ratio > 2x ... %s\n",
              ski_avg > 2 * snowboard_avg ? "HOLDS" : "VIOLATED");
  return ski_avg > 2 * snowboard_avg ? 0 : 1;
}

// --------------------------------------------------------------------------------------------
// Snapshot-restore microbenchmarks.
//
// Both restore benches run the same trial-sized workload (one seed program) per iteration
// so the arena is realistically dirtied, then restore — one via the reference full-arena
// memcpy, one via the dirty-page delta. The "bytes/restore" counters are directly
// comparable: the delta path must move at least 5x fewer bytes (locked in by
// tests/snapshot_delta_property_test.cc; quantified here).
// --------------------------------------------------------------------------------------------

void BM_SnapshotRestoreFull(benchmark::State& state) {
  KernelVm vm;
  Memory& mem = vm.engine().mem();
  const std::vector<Engine::GuestFn> fns = {
      MakeProgramRunner(vm.globals(), SeedPrograms()[0], 0)};
  Engine::RunOptions opts;
  opts.max_instructions = 1'000'000;
  Engine::RunResult result;
  Memory::Snapshot snap = mem.TakeSnapshot();
  uint64_t bytes = 0;
  uint64_t restores = 0;
  for (auto _ : state) {
    vm.engine().RunInto(fns, opts, &result);
    mem.Restore(snap);
    bytes += mem.size();
    restores++;
  }
  state.counters["bytes/restore"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(restores));
}
BENCHMARK(BM_SnapshotRestoreFull)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestoreDirty(benchmark::State& state) {
  KernelVm vm;
  Memory& mem = vm.engine().mem();
  const std::vector<Engine::GuestFn> fns = {
      MakeProgramRunner(vm.globals(), SeedPrograms()[0], 0)};
  Engine::RunOptions opts;
  opts.max_instructions = 1'000'000;
  Engine::RunResult result;
  Memory::Snapshot snap = mem.TakeSnapshot();
  uint64_t bytes = 0;
  uint64_t pages = 0;
  uint64_t restores = 0;
  for (auto _ : state) {
    vm.engine().RunInto(fns, opts, &result);
    Memory::RestoreStats stats = mem.RestoreDirty(snap);
    bytes += stats.bytes_copied;
    pages += stats.dirty_pages;
    restores++;
  }
  state.counters["bytes/restore"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(restores));
  state.counters["pages/restore"] = benchmark::Counter(
      static_cast<double>(pages) / static_cast<double>(restores));
}
BENCHMARK(BM_SnapshotRestoreDirty)->Unit(benchmark::kMicrosecond);

// The distilled Algorithm 2 hot loop at steady state: delta restore + fiber-switched run
// into recycled buffers + detectors over persistent scratch. Zero heap allocations per
// iteration after warm-up (tests/trial_alloc_test.cc asserts that; this measures the rate).
void BM_TrialLoopSteadyState(benchmark::State& state) {
  KernelVm vm;
  const Program program = SeedPrograms()[0];
  SequentialProfile profile = ProfileTest(vm, program, 0);
  std::vector<Pmc> pmcs = IdentifyPmcs({profile});
  PmcScheduler scheduler;
  if (!pmcs.empty()) {
    scheduler.ResetForTest(pmcs[0].key);
  }
  const std::vector<Engine::GuestFn> fns = {MakeProgramRunner(vm.globals(), program, 0),
                                            MakeProgramRunner(vm.globals(), program, 1)};
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  opts.max_instructions = 400'000;
  Engine::RunResult result;
  DetectorSuite detector;
  DetectorResult detectors;

  uint64_t trial = 0;
  for (auto _ : state) {
    scheduler.SeedTrial(2021 + trial % 8);
    vm.RestoreSnapshot();
    vm.engine().RunInto(fns, opts, &result);
    RunDetectors(result, &detector, &detectors);
    trial++;
  }
  state.counters["trials/s"] =
      benchmark::Counter(static_cast<double>(trial), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrialLoopSteadyState)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Detector-overhead A/B: the identical loop with the suite narrowed to the paper's two
// original oracles (console + race). BM_TrialLoopSteadyState runs all five, so the delta
// between the two is the whole cost of the hang-gated detectors on completing trials —
// expected to be noise, since each is one `hang && !panicked` branch per trial
// (EXPERIMENTS.md "Detector suite overhead").
void BM_TrialLoopRaceConsoleOnly(benchmark::State& state) {
  KernelVm vm;
  const Program program = SeedPrograms()[0];
  SequentialProfile profile = ProfileTest(vm, program, 0);
  std::vector<Pmc> pmcs = IdentifyPmcs({profile});
  PmcScheduler scheduler;
  if (!pmcs.empty()) {
    scheduler.ResetForTest(pmcs[0].key);
  }
  const std::vector<Engine::GuestFn> fns = {MakeProgramRunner(vm.globals(), program, 0),
                                            MakeProgramRunner(vm.globals(), program, 1)};
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  opts.max_instructions = 400'000;
  Engine::RunResult result;
  DetectorSuite detector(kDetectorConsole | kDetectorRace);
  DetectorResult detectors;

  uint64_t trial = 0;
  for (auto _ : state) {
    scheduler.SeedTrial(2021 + trial % 8);
    vm.RestoreSnapshot();
    vm.engine().RunInto(fns, opts, &result);
    RunDetectors(result, &detector, &detectors);
    trial++;
  }
  state.counters["trials/s"] =
      benchmark::Counter(static_cast<double>(trial), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrialLoopRaceConsoleOnly)->UseRealTime()->Unit(benchmark::kMicrosecond);

// The same loop with the tracer runtime-ENABLED: every trial emits the vm.restore span,
// restore-bytes counter, and engine.run span into the per-thread buffer. The EXPERIMENTS.md
// tracing-overhead table is (runtime-off = BM_TrialLoopSteadyState with default build,
// runtime-on = this, compiled-out = BM_TrialLoopSteadyState with -DSB_TRACE_COMPILED=0).
void BM_TrialLoopSteadyStateTraced(benchmark::State& state) {
  KernelVm vm;
  const Program program = SeedPrograms()[0];
  SequentialProfile profile = ProfileTest(vm, program, 0);
  std::vector<Pmc> pmcs = IdentifyPmcs({profile});
  PmcScheduler scheduler;
  if (!pmcs.empty()) {
    scheduler.ResetForTest(pmcs[0].key);
  }
  const std::vector<Engine::GuestFn> fns = {MakeProgramRunner(vm.globals(), program, 0),
                                            MakeProgramRunner(vm.globals(), program, 1)};
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  opts.max_instructions = 400'000;
  Engine::RunResult result;
  DetectorSuite detector;
  DetectorResult detectors;

  Tracer::Global().Start(/*per_thread_capacity=*/1 << 20);
  uint64_t trial = 0;
  for (auto _ : state) {
    scheduler.SeedTrial(2021 + trial % 8);
    vm.RestoreSnapshot();
    vm.engine().RunInto(fns, opts, &result);
    RunDetectors(result, &detector, &detectors);
    trial++;
  }
  Tracer::Global().Stop();
  state.counters["trials/s"] =
      benchmark::Counter(static_cast<double>(trial), benchmark::Counter::kIsRate);
  state.counters["dropped"] =
      benchmark::Counter(static_cast<double>(Tracer::Global().TotalDropped()));
}
BENCHMARK(BM_TrialLoopSteadyStateTraced)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace snowboard

int main(int argc, char** argv) {
  if (argc > 1) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    snowboard::bench::ReportEnvironment();
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  return snowboard::Run();
}
