// The calls the benchmark makes into snowboard, one function per way of driving it:
//   * RunStandaloneCampaign — RunSnowboardPipeline + report build and both renders, the way
//     `snowboard_cli campaign --report-dir` runs a campaign;
//   * RunLayeredCampaign — the same campaign driven stage by stage through the per-layer
//     entry points (BuildCorpus, ProfileCorpus, IdentifyPmcs, ClusterPmcs,
//     SelectConcurrentTests, ExploreConcurrentTest), with a span around each call;
//   * RunTrialReplica — ReproduceTrial -> DetectorSuite::Run -> HbFingerprint over explored
//     tests, timing each step of one trial separately;
//   * RunFleetLoop — a closed-loop client of an in-process FleetServer over its unix-socket
//     HTTP API.
// Only entry points that the roadmap keeps are called (no PrepareCampaign/ExecuteCampaign/
// GenerateTestsForStrategy, no engine selection, no restore-mode toggle, no direct
// Engine::Run), so engine and restore rewrites are measured by this code unchanged.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "report_check.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serve.h"
#include "src/util/workpool.h"

namespace perfbench {

// --- Workload specs (distinct seeds come from Mix(--seed, campaign index)). ---
snowboard::CampaignSpec ExploreSpec(uint64_t seed, size_t index);
snowboard::CampaignSpec PrepareSpec(uint64_t seed, size_t index);
snowboard::CampaignSpec FleetSpec(uint64_t seed, size_t index);

// --- Standalone campaign. ---
struct StandaloneRun {
  double wall_s = 0;  // Pipeline start -> report built and rendered (json + html).
  Usage usage;        // Process resource usage over the same interval.
  snowboard::PipelineOptions options;
  snowboard::PipelineResult result;
  std::string report_json;
};
StandaloneRun RunStandaloneCampaign(const snowboard::CampaignSpec& spec, int workers);

// One campaign's report checked from its bytes (report_check.h).
struct CheckedCampaign {
  bool ok = false;
  uint64_t tests = 0;
  int issues = 0;
  std::string error;
};
CheckedCampaign CheckCampaign(const std::string& report_json, snowboard::KernelVm& vm,
                              ReplayTally* tally, SpanTrace* trace);

// --- Layered campaign (traced run). ---
struct ExploredTest {
  snowboard::ConcurrentTest test;
  uint64_t seed = 0;  // The per-test explorer seed the pipeline derives from the index.
  int trials = 0;     // Trials the explorer ran.
};

struct LayerTotals {
  int campaigns = 0;
  uint64_t fuzz_execs = 0;  // Engine runs of BuildCorpus (one snapshot restore each).
  uint64_t fuzz_programs = 0;
  uint64_t profiled = 0;
  uint64_t pmcs = 0;
  uint64_t tests = 0;
  uint64_t trials = 0;
  uint64_t trials_pruned = 0;
  uint64_t tests_saturated = 0;
  uint64_t switch_decisions = 0;
  uint64_t explore_restores = 0;
  uint64_t explore_restore_ns = 0;
  double explore_s = 0;        // Explorer wall time (minimization on, as campaigns run).
  double explore_nomin_s = 0;  // The same tests with minimization off (nomin_pass only).
  std::vector<double> test_s;  // Per-test explorer wall time.
  std::vector<ExploredTest> explored;  // Feeds the trial replica.
};

// Drives `options`' campaign stage by stage on `vm` (which must be a pool worker's VM for
// the 1-worker pipeline to be comparable). Spans: fuzz, profile, pmc, cluster, select,
// explorer. With `nomin_pass`, every test is explored a second time with minimization off
// (span "explorer.nomin", reported separately). Returns false when the replica disagrees
// with `reference` (the untraced pipeline's result for the same options) on any count.
bool RunLayeredCampaign(snowboard::KernelVm& vm, const snowboard::PipelineOptions& options,
                        const snowboard::PipelineResult& reference, bool nomin_pass,
                        SpanTrace* trace, LayerTotals* totals, std::string* error);

// --- Trial replica. ---
struct ReplicaTotals {
  uint64_t trials = 0;
  double trial_s = 0;      // ReproduceTrial (restore + 2-vCPU run).
  double detectors_s = 0;  // DetectorSuite::Run.
  double equiv_s = 0;      // HbFingerprint.
  int64_t ctx_switches = 0;
};
void RunTrialReplica(snowboard::KernelVm& vm, const std::vector<ExploredTest>& tests,
                     double max_seconds, ReplicaTotals* totals);

// --- Fleet client. ---
struct FleetLoopStats {
  int attempted = 0;
  int ok = 0;
  std::vector<double> campaign_s;    // Submit -> done with report committed (polled).
  std::vector<double> queue_wait_s;  // Submit -> first poll that sees it running.
  std::vector<double> status_us;     // GET /campaigns/<id> round trips.
  std::vector<int> issues;
  uint64_t tests = 0;
  double phase_s = 0;  // First submit -> last campaign checked.
  Usage usage;         // Process resource usage over the phase.
  ReplayTally replay;
  uint64_t flush_ns = 0;        // Journal group-commit time (counter delta).
  uint64_t flushes = 0;         // Journal group commits.
  uint64_t bytes = 0;           // Checkpoint payload bytes.
  std::vector<std::string> errors;
};

// Serves `specs` through a FleetServer with `workers` workers (total_workers = max_active)
// rooted at `root` (created fresh, removed afterwards), keeping up to `workers` campaigns
// in flight from one client thread that holds one connection at a time. Each finished
// campaign's report is fetched and checked on `client_vm`. Spans: serve.submit,
// serve.status, serve.fetch, check, replay, serve.wait (the client's poll sleep).
bool RunFleetLoop(const std::vector<snowboard::CampaignSpec>& specs, int workers,
                  const std::string& root, snowboard::KernelVm& client_vm, SpanTrace* trace,
                  FleetLoopStats* stats);

// Satellite check for the benchmark's own test: each spec runs once through a FleetServer
// (`workers` workers) and once standalone at one worker; the fleet's committed report.json
// must equal the standalone report byte for byte after MaskReportVolatile.
bool FleetMatchesStandalone(const std::vector<snowboard::CampaignSpec>& specs, int workers,
                            const std::string& root, std::string* error);

// --- Set-up. ---
// One bring-up of what a workload needs before its first operation: `workers` threads of
// `pool`, each with its booted VM (PoolWorkerVm), plus — with a non-empty `fleet_root` — a
// FleetServer on that empty root and its HTTP listener (torn down again). Returns seconds,
// or -1 when the fleet could not start; per-VM boot times are appended to `boot_ms`. Run
// first on WorkerPool::Global() (the bring-up the measured operations then use), then on
// fresh pools to repeat the same work.
double BringUp(snowboard::WorkerPool& pool, int workers, const std::string& fleet_root,
               std::vector<double>* boot_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
