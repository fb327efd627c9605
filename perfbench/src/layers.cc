#include "layers.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "src/fuzz/corpus.h"
#include "src/kernel/kernel.h"
#include "src/snowboard/cluster.h"
#include "src/snowboard/detectors.h"
#include "src/snowboard/equiv.h"
#include "src/snowboard/explorer.h"
#include "src/snowboard/pmc.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/select.h"
#include "src/snowboard/serve_http.h"
#include "src/util/counters.h"
#include "src/util/workpool.h"

namespace perfbench {

using snowboard::CampaignSpec;
using snowboard::KernelVm;
using snowboard::PipelineOptions;
using snowboard::PipelineResult;

namespace {

uint64_t CampaignSeed(uint64_t seed, size_t index) {
  return 1 + Mix(seed, index) % 1'000'000;
}

CampaignSpec BaseSpec(uint64_t seed, size_t index) {
  CampaignSpec spec;  // Defaults: S-INS-PAIR, corpus 80/300, budget 300, 24 trials, pruning.
  spec.name = "c" + std::to_string(index);
  spec.seed = CampaignSeed(seed, index);
  spec.workers = 1;
  return spec;
}

// Snapshot restores so far (one per engine run). A pool thread accumulates counters in a
// private shard, so it is drained into the global block before reading.
uint64_t Restores(const snowboard::PipelineCounters& c) {
  snowboard::FlushCounterShard();
  return c.snapshot_full_restores.load() + c.snapshot_delta_restores.load();
}

uint64_t RestoreNanos(const snowboard::PipelineCounters& c) {
  snowboard::FlushCounterShard();
  return c.snapshot_restore_nanos.load();
}

}  // namespace

CampaignSpec ExploreSpec(uint64_t seed, size_t index) { return BaseSpec(seed, index); }

CampaignSpec PrepareSpec(uint64_t seed, size_t index) {
  CampaignSpec spec = BaseSpec(seed, index);
  // Fuzz to saturation: 20 000 iterations stop adding programs at roughly 300, far below the
  // size cap, so the iteration count — not the cap — ends the corpus stage.
  spec.corpus_size = 100'000;
  spec.corpus_iters = 20'000;
  spec.budget = 32;
  spec.trials = 8;
  return spec;
}

CampaignSpec FleetSpec(uint64_t seed, size_t index) {
  // Cycles the Table 1 clustering strategies except S-CH-UNALIGNED, whose campaigns select
  // only a handful of tests (two on a typical seed) and so exercise none of the fleet's
  // journal or pool sharing. Campaign costs differ several-fold between strategies; the odd
  // count (seven) keeps the median campaign inside one strategy's cost band instead of in
  // the gap between two. RANDOM-S-INS-PAIR is not cycled: its display name is not a valid
  // checkpoint entry name, so under the fleet its journal appends are rejected and it would
  // not exercise the checkpoint layer this workload exists for.
  std::vector<snowboard::Strategy> strategies;
  for (snowboard::Strategy strategy : snowboard::kAllClusteringStrategies) {
    if (strategy != snowboard::Strategy::kSChUnaligned) {
      strategies.push_back(strategy);
    }
  }
  CampaignSpec spec = BaseSpec(seed, index);
  spec.strategy = strategies[index % strategies.size()];
  return spec;
}

StandaloneRun RunStandaloneCampaign(const CampaignSpec& spec, int workers) {
  StandaloneRun run;
  // BuildCampaignReport reads the process counters; reset them so the report attributes
  // only this campaign (outside the timed interval).
  snowboard::ResetPipelineCounters();
  Usage before = ReadUsage();
  double start = NowSeconds();
  run.options = snowboard::CampaignPipelineOptions(spec, "", workers);
  run.result = snowboard::RunSnowboardPipeline(run.options);
  snowboard::CampaignReport report = snowboard::BuildCampaignReport(run.options, run.result);
  run.report_json = snowboard::RenderReportJson(report);
  std::string html = snowboard::RenderReportHtml(report);
  run.wall_s = NowSeconds() - start;
  run.usage = ReadUsage() - before;
  if (html.empty()) {
    run.report_json.clear();  // Fails the check below: a render produced nothing.
  }
  return run;
}

CheckedCampaign CheckCampaign(const std::string& report_json, KernelVm& vm,
                              ReplayTally* tally, SpanTrace* trace) {
  CheckedCampaign checked;
  ReportView view;
  {
    ScopedSpan span(trace, "check");
    view = ParseReport(report_json);
  }
  if (!view.parsed) {
    checked.error = view.error;
    return checked;
  }
  checked.tests = view.funnel["tests_executed"];
  checked.issues = static_cast<int>(view.tokens.size());
  checked.ok = ReplayAll(vm, view, tally, trace);
  if (!checked.ok) {
    checked.error = "a finding's replay token is missing or did not replay exactly";
  }
  return checked;
}

bool RunLayeredCampaign(KernelVm& vm, const PipelineOptions& options,
                        const PipelineResult& reference, bool nomin_pass, SpanTrace* trace,
                        LayerTotals* totals, std::string* error) {
  using namespace snowboard;
  PipelineCounters& counters = GlobalPipelineCounters();
  // The stage inputs exactly as the pipeline derives them from its options.
  std::vector<Program> corpus;
  {
    ScopedSpan span(trace, "fuzz");
    uint64_t restores = Restores(counters);
    CorpusOptions corpus_options = options.corpus;
    corpus_options.seed = corpus_options.seed ^ options.seed;
    corpus = CorpusPrograms(BuildCorpus(vm, corpus_options));
    totals->fuzz_execs += Restores(counters) - restores;
  }
  std::vector<SequentialProfile> profiles;
  {
    ScopedSpan span(trace, "profile");
    profiles = ProfileCorpus(vm, corpus);
  }
  std::vector<Pmc> pmcs;
  {
    ScopedSpan span(trace, "pmc");
    pmcs = IdentifyPmcs(profiles, options.pmc);
  }
  std::vector<PmcCluster> clusters;
  {
    ScopedSpan span(trace, "cluster");
    clusters = ClusterPmcs(pmcs, options.strategy, 1);
  }
  std::vector<ConcurrentTest> tests;
  {
    ScopedSpan span(trace, "select");
    SelectOptions select;
    select.seed = options.seed * 0x9e3779b9ull + 17;
    select.max_tests = options.max_concurrent_tests;
    select.randomize_cluster_order = options.strategy == Strategy::kRandomSInsPair;
    tests = SelectConcurrentTests(pmcs, clusters, corpus, select);
  }
  PmcMatcher matcher(&pmcs);
  uint64_t trials = 0;
  uint64_t pruned = 0;
  uint64_t restores = Restores(counters);
  uint64_t restore_ns = RestoreNanos(counters);
  for (size_t index = 0; index < tests.size(); index++) {
    ExplorerOptions explorer = options.explorer;
    explorer.seed = options.explorer.seed + index * 1000003ull;
    double start = NowSeconds();
    ExploreOutcome outcome;
    {
      ScopedSpan span(trace, "explorer");
      outcome = ExploreConcurrentTest(vm, tests[index], &matcher, explorer);
    }
    totals->test_s.push_back(NowSeconds() - start);
    totals->explore_s += totals->test_s.back();
    trials += static_cast<uint64_t>(outcome.trials_run);
    pruned += static_cast<uint64_t>(outcome.trials_pruned);
    totals->tests_saturated += outcome.saturated ? 1 : 0;
    totals->switch_decisions += outcome.switch_decisions;
    totals->explored.push_back(ExploredTest{tests[index], explorer.seed, outcome.trials_run});
  }
  totals->explore_restores += Restores(counters) - restores;
  totals->explore_restore_ns += RestoreNanos(counters) - restore_ns;
  if (nomin_pass) {
    for (size_t index = 0; index < tests.size(); index++) {
      ExplorerOptions explorer = options.explorer;
      explorer.seed = options.explorer.seed + index * 1000003ull;
      explorer.minimize_schedules = false;
      double start = NowSeconds();
      {
        ScopedSpan span(trace, "explorer.nomin");
        ExploreConcurrentTest(vm, tests[index], &matcher, explorer);
      }
      totals->explore_nomin_s += NowSeconds() - start;
    }
  }
  totals->campaigns++;
  totals->fuzz_programs += corpus.size();
  totals->profiled += profiles.size();
  totals->pmcs += pmcs.size();
  totals->tests += tests.size();
  totals->trials += trials;
  totals->trials_pruned += pruned;
  if (corpus.size() != reference.corpus_size || pmcs.size() != reference.pmc_count ||
      clusters.size() != reference.cluster_count ||
      tests.size() != reference.tests_executed || trials != reference.total_trials ||
      pruned != reference.trials_pruned) {
    *error = "layered replica of seed " + std::to_string(options.seed) +
             " disagrees with RunSnowboardPipeline (corpus/pmcs/clusters/tests/trials)";
    return false;
  }
  return true;
}

void RunTrialReplica(KernelVm& vm, const std::vector<ExploredTest>& tests,
                     double max_seconds, ReplicaTotals* totals) {
  using namespace snowboard;
  DetectorSuite suite;
  DetectorResult detected;
  HbScratch hb_state;
  Usage before = ReadUsage();
  double deadline = NowSeconds() + max_seconds;
  for (const ExploredTest& explored : tests) {
    if (NowSeconds() > deadline) {
      break;
    }
    for (int trial = 0; trial < explored.trials; trial++) {
      double t0 = NowSeconds();
      Engine::RunResult run = ReproduceTrial(vm, explored.test, explored.seed, trial, nullptr);
      double t1 = NowSeconds();
      suite.Run(run, &detected);
      double t2 = NowSeconds();
      HbFingerprint(run.trace, &hb_state);
      double t3 = NowSeconds();
      totals->trial_s += t1 - t0;
      totals->detectors_s += t2 - t1;
      totals->equiv_s += t3 - t2;
      totals->trials++;
    }
  }
  totals->ctx_switches += (ReadUsage() - before).ctx_switches;
}

namespace {

// Extracts the string value of `"key": "..."` from the daemon's one-key-per-line JSON.
std::string JsonField(const std::string& body, const std::string& key) {
  std::string needle = "\"" + key + "\": \"";
  size_t at = body.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  at += needle.size();
  size_t end = body.find('"', at);
  return end == std::string::npos ? "" : body.substr(at, end - at);
}

bool JsonTrue(const std::string& body, const std::string& key) {
  return body.find("\"" + key + "\": true") != std::string::npos;
}

// Pause between status-poll rounds. GET /campaigns/<id> re-reads the campaign's journal
// from disk under the fleet lock, so a tighter loop would steal the workers' CPUs.
constexpr useconds_t kPollIntervalUs = 25'000;

struct InFlight {
  std::string id;
  double submitted = 0;
  bool seen_running = false;
};

}  // namespace

bool RunFleetLoop(const std::vector<CampaignSpec>& specs, int workers,
                  const std::string& root, KernelVm& client_vm, SpanTrace* trace,
                  FleetLoopStats* stats) {
  using namespace snowboard;
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
  FleetOptions fleet_options;
  fleet_options.root = root;
  fleet_options.total_workers = workers;
  fleet_options.max_active = workers;
  // Declared first so it runs last: removes the root once the server has drained.
  struct RemoveRoot {
    const std::string& root;
    ~RemoveRoot() {
      std::error_code ignored;
      std::filesystem::remove_all(root, ignored);
    }
  } remove_root{root};
  FleetServer server(fleet_options);
  const std::string socket = root + ".sock";
  FleetHttpServer http(&server, socket);
  if (!server.ok() || !http.ok()) {
    stats->errors.push_back("fleet server could not start under " + root);
    return false;
  }
  // Stops and joins the accept loop on every path out of this function.
  struct AcceptLoop {
    FleetHttpServer& http;
    std::thread thread;
    ~AcceptLoop() {
      http.Stop();
      thread.join();
    }
  } accept_loop{http, std::thread([&http]() { http.Serve(); })};

  PipelineCounters& counters = GlobalPipelineCounters();
  uint64_t flush_ns = counters.journal_flush_nanos.load();
  uint64_t flushes = counters.journal_batch_flushes.load();
  uint64_t bytes = counters.checkpoint_bytes.load();
  Usage before = ReadUsage();
  double phase_start = NowSeconds();

  auto request = [&](const char* layer, const std::string& method, const std::string& path,
                     const std::string& body) {
    ScopedSpan span(trace, layer);
    return UnixHttpRequest(socket, method, path, body);
  };

  std::vector<InFlight> in_flight;
  size_t next = 0;
  while (next < specs.size() || !in_flight.empty()) {
    while (next < specs.size() && static_cast<int>(in_flight.size()) < workers) {
      InFlight job;
      job.id = specs[next].name;
      job.submitted = NowSeconds();
      std::optional<HttpResponse> response =
          request("serve.submit", "POST", "/campaigns", SerializeCampaignSpec(specs[next]));
      stats->attempted++;
      next++;
      if (!response.has_value() || response->status != 201) {
        stats->errors.push_back(job.id + ": submit refused");
        continue;
      }
      in_flight.push_back(job);
    }
    bool progressed = false;
    for (size_t i = 0; i < in_flight.size();) {
      InFlight& job = in_flight[i];
      double t0 = NowSeconds();
      std::optional<HttpResponse> status =
          request("serve.status", "GET", "/campaigns/" + job.id, "");
      double now = NowSeconds();
      stats->status_us.push_back((now - t0) * 1e6);
      std::string state = status.has_value() ? JsonField(status->body, "state") : "";
      if (state == "running" && !job.seen_running) {
        job.seen_running = true;
        stats->queue_wait_s.push_back(now - job.submitted);
      }
      if (state == "running" || state == "queued" ||
          (state == "done" && !JsonTrue(status->body, "report_ready"))) {
        i++;
        continue;
      }
      progressed = true;
      if (state == "done") {
        if (!job.seen_running) {
          stats->queue_wait_s.push_back(now - job.submitted);
        }
        stats->campaign_s.push_back(now - job.submitted);
        std::optional<HttpResponse> report =
            request("serve.fetch", "GET", "/campaigns/" + job.id + "/report", "");
        CheckedCampaign checked;
        if (report.has_value() && report->status == 200) {
          checked = CheckCampaign(report->body, client_vm, &stats->replay, trace);
        } else {
          checked.error = "report fetch failed";
        }
        if (checked.ok) {
          stats->ok++;
          stats->tests += checked.tests;
          stats->issues.push_back(checked.issues);
        } else {
          stats->errors.push_back(job.id + ": " + checked.error);
        }
      } else {
        stats->errors.push_back(job.id + ": ended in state '" + state + "'");
      }
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (!progressed && !in_flight.empty()) {
      ScopedSpan span(trace, "serve.wait");
      usleep(kPollIntervalUs);
    }
  }
  stats->phase_s = NowSeconds() - phase_start;
  stats->usage = ReadUsage() - before;
  stats->flush_ns = counters.journal_flush_nanos.load() - flush_ns;
  stats->flushes = counters.journal_batch_flushes.load() - flushes;
  stats->bytes = counters.checkpoint_bytes.load() - bytes;

  std::optional<HttpResponse> drained = UnixHttpRequest(socket, "POST", "/drain", "");
  if (!drained.has_value() || drained->status != 202) {
    stats->errors.push_back("POST /drain was not accepted");
  }
  return stats->errors.empty();
}

bool FleetMatchesStandalone(const std::vector<CampaignSpec>& specs, int workers,
                            const std::string& root, std::string* error) {
  using namespace snowboard;
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
  FleetOptions fleet_options;
  fleet_options.root = root;
  fleet_options.total_workers = workers;
  fleet_options.max_active = workers;
  std::vector<std::string> fleet_reports;
  {
    FleetServer server(fleet_options);
    for (const CampaignSpec& spec : specs) {
      std::string submit_error;
      if (server.Submit(spec, &submit_error) != FleetRc::kOk) {
        *error = spec.name + ": submit failed: " + submit_error;
        return false;
      }
    }
    server.WaitIdle();
    for (const CampaignSpec& spec : specs) {
      fleet_reports.push_back(server.ReportJson(spec.name).value_or(""));
    }
    server.Drain();
  }
  std::filesystem::remove_all(root, ignored);
  for (size_t i = 0; i < specs.size(); i++) {
    StandaloneRun standalone = RunStandaloneCampaign(specs[i], 1);
    if (fleet_reports[i].empty() ||
        MaskReportVolatile(fleet_reports[i]) != MaskReportVolatile(standalone.report_json)) {
      *error = specs[i].name + ": fleet report differs from the standalone run after masking";
      return false;
    }
  }
  return true;
}

double BringUp(snowboard::WorkerPool& pool, int workers, const std::string& fleet_root,
               std::vector<double>* boot_ms) {
  using namespace snowboard;
  std::error_code ignored;
  if (!fleet_root.empty()) {
    std::filesystem::remove_all(fleet_root, ignored);
  }
  std::vector<double> boots(static_cast<size_t>(workers), 0);
  std::atomic<int> slot{0};
  double start = NowSeconds();
  pool.Run(workers, [&](PoolWorker& worker) {
    double t0 = NowSeconds();
    PoolWorkerVm(worker);
    boots[static_cast<size_t>(slot.fetch_add(1))] = (NowSeconds() - t0) * 1e3;
  });
  double elapsed = NowSeconds() - start;
  if (!fleet_root.empty()) {
    FleetOptions fleet_options;
    fleet_options.root = fleet_root;
    fleet_options.total_workers = workers;
    fleet_options.max_active = workers;
    FleetServer server(fleet_options);
    FleetHttpServer http(&server, fleet_root + ".sock");
    elapsed = NowSeconds() - start;
    if (!server.ok() || !http.ok()) {
      elapsed = -1;
    }
  }
  if (!fleet_root.empty()) {
    std::filesystem::remove_all(fleet_root, ignored);
  }
  boot_ms->insert(boot_ms->end(), boots.begin(), boots.end());
  return elapsed;
}

}  // namespace perfbench
