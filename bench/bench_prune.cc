// Schedule-equivalence pruning — pruned-vs-run A/B and fingerprint overhead.
//
// The pruning layer (src/snowboard/equiv.h) claims two things worth tracking as numbers:
//   1. On the reference campaign, prune-on executes >= 25% fewer trials than prune-off
//      while reporting the identical issue set (the tests/equiv_property_test.cc A/B,
//      quantified here with the funnel breakdown: executed / pruned / saturated tests).
//   2. The happens-before fingerprint is cheap enough to ride the trial hot loop:
//      one pass over the trace with flat reusable storage, no steady-state allocation.
// Invoked with no arguments, the binary runs the A/B experiment. Invoked with any
// google-benchmark flag (e.g. --benchmark_filter=BM_), it runs the microbenchmarks:
// BM_FingerprintOverhead isolates the per-trace fingerprint cost, and BM_TrialLoopPruned
// is the full trial loop with fingerprint + seen-set + adaptive table — directly
// comparable to bench_perf_interleavings' BM_TrialLoopSteadyState. Both register their rate
// counters with UseRealTime(), so events/s and trials/s are per wall second.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/fuzz/generator.h"
#include "src/snowboard/equiv.h"
#include "src/util/flatmap.h"

namespace snowboard {
namespace {

int Run() {
  bench::PrintHeader("Schedule-equivalence pruning — pruned vs run on the reference campaign");

  auto reference = [](bool prune) {
    PipelineOptions options;
    options.seed = 7;
    options.corpus.seed = 42;
    options.corpus.max_iterations = 40;
    options.corpus.target_size = 32;
    options.strategy = Strategy::kSInsPair;
    options.max_concurrent_tests = 24;
    options.explorer.num_trials = 8;
    options.num_workers = 4;
    options.explorer.prune.enabled = prune;
    return options;
  };

  PipelineResult off = RunSnowboardPipeline(reference(false));
  PipelineResult on = RunSnowboardPipeline(reference(true));

  auto issues = [](const PipelineResult& result) {
    std::vector<int> ids;
    for (const auto& [issue, finding] : result.findings.first_findings()) {
      ids.push_back(issue);
    }
    return ids;
  };

  std::printf("%-28s %-12s %-12s\n", "", "prune-off", "prune-on");
  std::printf("%-28s %-12zu %-12zu\n", "tests executed", off.tests_executed,
              on.tests_executed);
  std::printf("%-28s %-12llu %-12llu\n", "trials executed",
              static_cast<unsigned long long>(off.total_trials),
              static_cast<unsigned long long>(on.total_trials));
  std::printf("%-28s %-12llu %-12llu\n", "trials pruned (duplicate)",
              static_cast<unsigned long long>(off.trials_pruned),
              static_cast<unsigned long long>(on.trials_pruned));
  std::printf("%-28s %-12llu %-12llu\n", "tests saturated",
              static_cast<unsigned long long>(off.tests_saturated),
              static_cast<unsigned long long>(on.tests_saturated));
  std::printf("%-28s %-12llu %-12llu\n", "switch decisions",
              static_cast<unsigned long long>(off.switch_decisions),
              static_cast<unsigned long long>(on.switch_decisions));
  std::printf("%-28s %-12zu %-12zu\n", "distinct issues",
              issues(off).size(), issues(on).size());

  double saved = off.total_trials == 0
                     ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(on.total_trials) /
                                          static_cast<double>(off.total_trials));
  bool same_issues = issues(on) == issues(off);
  std::printf("\ntrials saved: %.1f%%  (bar: >= 25%%) ... %s\n", saved,
              saved >= 25.0 ? "HOLDS" : "VIOLATED");
  std::printf("identical issue set ... %s\n", same_issues ? "HOLDS" : "VIOLATED");
  return saved >= 25.0 && same_issues ? 0 : 1;
}

// Builds a trial-representative trace once: one duplicate-pair trial of the first seed
// program that profiles clean, recorded through the real engine.
Trace RepresentativeTrace(KernelVm& vm) {
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
  scheduler.SeedTrial(2021);
  vm.RestoreSnapshot();
  vm.engine().RunInto(fns, opts, &result);
  return result.trace;
}

// The isolated fingerprint cost: one pass over a representative trial trace with flat
// reusable scratch. events/s is the comparable throughput number — the trial loop feeds
// the same trace it just recorded, so this is exactly the added per-trial work.
void BM_FingerprintOverhead(benchmark::State& state) {
  KernelVm vm;
  const Trace trace = RepresentativeTrace(vm);
  HbScratch scratch;
  uint64_t folded = 0;
  uint64_t events = 0;
  for (auto _ : state) {
    folded ^= HbFingerprint(trace, &scratch);
    events += trace.size();
  }
  benchmark::DoNotOptimize(folded);
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["trace_events"] = static_cast<double>(trace.size());
}
BENCHMARK(BM_FingerprintOverhead)->UseRealTime();

// The full pruned trial loop: restore + run + fingerprint + seen-set probe + detectors,
// with the adaptive table installed when arg is 1. Compare trials/s against
// BM_TrialLoopSteadyState in bench_perf_interleavings (the identical loop without the
// pruning layer). The two arguments split the cost honestly: /0 prices the bookkeeping
// alone (fingerprint + seen-set, expected ~the BM_FingerprintOverhead delta), while /1
// adds the steering — which deliberately raises per-trial preemption frequency at hot
// sites, so its trials are slower by design and pay for themselves through the ~34%
// trial-count reduction the A/B measures, not through per-trial speed.
void BM_TrialLoopPruned(benchmark::State& state) {
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
  HbScratch scratch;
  FlatSet<uint64_t> seen;
  AdaptiveSiteTable table;
  const bool adaptive = state.range(0) != 0;
  if (adaptive) {
    scheduler.set_adaptive_sites(&table);
  }

  uint64_t trial = 0;
  uint64_t pruned = 0;
  for (auto _ : state) {
    if (trial % 8 == 0) {  // New-test boundary: prune state resets, capacity kept.
      seen.Clear();
      table.Clear();
    }
    scheduler.SeedTrial(2021 + trial % 8);
    vm.RestoreSnapshot();
    vm.engine().RunInto(fns, opts, &result);
    uint64_t hb = HbFingerprint(result.trace, &scratch);
    if (!seen.Insert(hb)) {
      pruned++;  // Duplicate: the real loop skips detectors here.
      trial++;
      continue;
    }
    if (adaptive) {
      for (SiteId site : scratch.edge_sites) {
        table.Record(site);
      }
    }
    RunDetectors(result, &detector, &detectors);
    trial++;
  }
  state.counters["trials/s"] =
      benchmark::Counter(static_cast<double>(trial), benchmark::Counter::kIsRate);
  state.counters["pruned/trials"] =
      trial == 0 ? 0.0 : static_cast<double>(pruned) / static_cast<double>(trial);
}
BENCHMARK(BM_TrialLoopPruned)->Arg(0)->Arg(1)->UseRealTime()->Unit(benchmark::kMicrosecond);

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
