#include "workloads.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>

#include "layers.h"
#include "measure.h"
#include "src/kernel/kernel.h"
#include "src/snowboard/profile.h"
#include "src/snowboard/report_html.h"
#include "src/util/log.h"
#include "src/util/workpool.h"

namespace perfbench {

using snowboard::CampaignSpec;
using snowboard::KernelVm;
using snowboard::PoolWorker;
using snowboard::WorkerPool;

namespace {

constexpr int kSetupRepeats = 101;  // Bring-ups per run; setup_s is their median.

// Nominal wall seconds of one campaign on one worker, measured on a 4-CPU KVM guest. They
// size a run's fixed campaign list so it measures about --seconds there; the list depends
// only on (workload, --seed, --seconds, CPU count), never on timing, so every repeat of a
// seed runs exactly the same campaigns.
double NominalCampaignSeconds(const std::string& workload) {
  if (workload == "explore") {
    return 0.9;
  }
  if (workload == "prepare") {
    return 0.42;
  }
  return 1.1;  // fleet: one campaign on one of several busy workers.
}

std::function<CampaignSpec(uint64_t, size_t)> SpecFor(const std::string& workload) {
  if (workload == "explore") {
    return ExploreSpec;
  }
  if (workload == "prepare") {
    return PrepareSpec;
  }
  return FleetSpec;
}

size_t PlanCampaigns(const RunArgs& args, int workers, double share) {
  double n = args.seconds * share * workers / NominalCampaignSeconds(args.workload);
  size_t count = static_cast<size_t>(std::llround(n));
  if (args.workload == "fleet") {
    count = std::max<size_t>(count, static_cast<size_t>(workers));  // Every CPU gets work.
  }
  return std::max<size_t>(count, 1);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string FsType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buffer;
    }
  }
}

double LoadAverage1() {
  double loads[3] = {0, 0, 0};
  return getloadavg(loads, 3) >= 1 ? loads[0] : -1;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

using Metrics = std::vector<Metric>;

void Put(Metrics* metrics, const std::string& name, double value, const std::string& unit) {
  metrics->push_back(Metric{name, value, unit});
}

// What every run does first: pin (explore/prepare), time the host reference loop, and
// bring the workload's resources up kSetupRepeats times (the first on the global pool the
// measured operations use).
struct Prologue {
  int workers = 1;
  std::string allowed_cpus;  // The CPU set the process was started with.
  std::string pinned_cpu;    // Empty when not pinned.
  std::vector<int> rotation;  // The CPUs campaigns are pinned to in turn; empty for fleet.
  double ref_start_ms = 0;
  HostCpu host_start;
  std::vector<double> setup_s;
  std::vector<double> boot_ms;
  bool ok = true;
};

Prologue RunPrologue(const RunArgs& args) {
  Prologue p;
  bool fleet = args.workload == "fleet";
  p.allowed_cpus = AllowedCpus();
  if (!fleet) {
    p.rotation = AllowedCpuList();
    p.pinned_cpu = PinToOneCpu();  // Before any thread starts, so every thread inherits it.
    if (p.pinned_cpu.empty()) {
      p.ok = false;
    }
  }
  p.workers = fleet ? AllowedCpuCount() : 1;
  p.ref_start_ms = HostRefMs();
  p.host_start = ReadHostCpu();
  for (int r = 0; r < kSetupRepeats; r++) {
    std::string root = fleet ? args.work_dir + "/setup" + std::to_string(r) : "";
    double seconds;
    if (r == 0) {
      seconds = BringUp(WorkerPool::Global(), p.workers, root, &p.boot_ms);
    } else {
      WorkerPool pool;
      seconds = BringUp(pool, p.workers, root, &p.boot_ms);
    }
    if (seconds < 0) {
      p.ok = false;
    }
    p.setup_s.push_back(seconds);
  }
  return p;
}

std::string RecordJson(const RunArgs& args, const Prologue& p, double ref_end_ms,
                       size_t campaigns, const std::string& storage_fs) {
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::string out = "{";
  out += "\"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"build\": " + JsonString(build);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"allowed_cpus\": " + JsonString(p.allowed_cpus);
  out += ", \"pinned_cpu\": " + JsonString(p.pinned_cpu.empty() ? "none" : p.pinned_cpu);
  std::string rotation;
  for (int cpu : p.rotation) {
    rotation += (rotation.empty() ? "" : ",") + std::to_string(cpu);
  }
  out += ", \"pin_rotation\": " + JsonString(rotation.empty() ? "none" : rotation);
  out += ", \"workers\": " + std::to_string(p.workers);
  out += ", \"loadavg_1m\": " + Num(LoadAverage1());
  out += ", \"checkpoint_fs\": " + JsonString(storage_fs);
  out += ", \"checkpoints_on_tmpfs\": " + std::string(storage_fs == "tmpfs" ? "true" : "false");
  out += ", \"host_ref_ms_start\": " + Num(p.ref_start_ms);
  out += ", \"host_ref_ms_end\": " + Num(ref_end_ms);
  out += ", \"host_drift\": " + Num(Ratio(ref_end_ms, p.ref_start_ms));
  out += ", \"host_steal_share\": " + Num(StealShare(p.host_start, ReadHostCpu()));
  out += ", \"campaigns\": " + std::to_string(campaigns);
  out += ", \"setup_samples\": " + std::to_string(p.setup_s.size());
  out += "}";
  return out;
}

// Pins the whole process to the CPU whose turn campaign `index` is, outside the campaign's
// timing. Each campaign runs on one CPU (its vCPU handoffs never cross CPUs), but a run's
// campaigns cover every allowed CPU, so the host's load on one core does not set the speed
// of the whole run (pinned to one fixed CPU, runs spread two to four times as much).
void PinForCampaign(const Prologue& p, size_t index, RunOutput* out) {
  if (!p.rotation.empty() && !PinProcessToCpu(p.rotation[index % p.rotation.size()])) {
    out->correct = false;
    out->errors.push_back("could not pin the process for campaign " + std::to_string(index));
  }
}

// Checks standalone runs' reports on the global pool's worker VM (outside any timing).
void CheckStandalone(const std::vector<StandaloneRun>& runs, ReplayTally* tally,
                     std::vector<CheckedCampaign>* checked) {
  WorkerPool::Global().Run(1, [&](PoolWorker& worker) {
    KernelVm& vm = snowboard::PoolWorkerVm(worker);
    for (const StandaloneRun& run : runs) {
      CheckedCampaign c = CheckCampaign(run.report_json, vm, tally, nullptr);
      if (c.ok && c.tests != run.result.tests_executed) {
        c.ok = false;
        c.error = "report tests_executed disagrees with the pipeline result";
      }
      checked->push_back(c);
    }
  });
}

void Tally(const std::vector<CheckedCampaign>& checked, RunOutput* out) {
  for (const CheckedCampaign& c : checked) {
    out->attempted++;
    if (!c.ok) {
      out->failed++;
      out->errors.push_back(c.error);
    }
  }
}

// --- Untraced runs: the end-to-end metrics. ---

void PutEndToEnd(Metrics* m, const Prologue& p, const std::vector<double>& campaign_s,
                 double tests, double phase_s, double cpu_s, double issues_mean,
                 const RunOutput& out) {
  Put(m, "setup_s", Median(p.setup_s), "s");
  Put(m, "campaign_s_p50", Median(campaign_s), "s");
  Put(m, "tests_per_s", Ratio(tests, phase_s), "1/s");
  Put(m, "issues_per_campaign", issues_mean, "count");
  Put(m, "cpu_s_per_test", Ratio(cpu_s, tests), "s");
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  Put(m, "ok_share", Ratio(out.attempted - out.failed, out.attempted), "ratio");
}

void RunStandaloneWorkload(const RunArgs& args, const Prologue& p, RunOutput* out,
                           Metrics* m) {
  auto spec_for = SpecFor(args.workload);
  size_t n = PlanCampaigns(args, 1, 1.0);
  std::vector<StandaloneRun> runs;
  std::vector<double> campaign_s;
  double tests = 0;
  double cpu_s = 0;
  for (size_t i = 0; i < n; i++) {
    PinForCampaign(p, i, out);
    runs.push_back(RunStandaloneCampaign(spec_for(args.seed, i), 1));
    campaign_s.push_back(runs.back().wall_s);
    tests += static_cast<double>(runs.back().result.tests_executed);
    cpu_s += runs.back().usage.cpu_s();
  }
  ReplayTally tally;
  std::vector<CheckedCampaign> checked;
  CheckStandalone(runs, &tally, &checked);
  Tally(checked, out);
  double issues = 0;
  for (const CheckedCampaign& c : checked) {
    issues += c.issues;
  }
  PutEndToEnd(m, p, campaign_s, tests, Sum(campaign_s), cpu_s, Ratio(issues, n), *out);
}

void RunFleetWorkload(const RunArgs& args, const Prologue& p, RunOutput* out, Metrics* m) {
  size_t n = PlanCampaigns(args, p.workers, 1.0);
  std::vector<CampaignSpec> specs;
  for (size_t i = 0; i < n; i++) {
    specs.push_back(FleetSpec(args.seed, i));
  }
  KernelVm client_vm;  // The client's own VM for replaying fetched tokens.
  FleetLoopStats stats;
  if (!RunFleetLoop(specs, p.workers, args.work_dir + "/fleet", client_vm, nullptr,
                    &stats)) {
    out->correct = false;
  }
  out->attempted = stats.attempted;
  out->failed = stats.attempted - stats.ok;
  out->errors = stats.errors;
  double issues = 0;
  for (int v : stats.issues) {
    issues += v;
  }
  PutEndToEnd(m, p, stats.campaign_s, static_cast<double>(stats.tests), stats.phase_s,
              stats.usage.cpu_s(), Ratio(issues, static_cast<double>(stats.attempted)), *out);
}

// --- Traced runs: the per-layer metrics. ---

// Self-time breakdown of one traced phase. Spans named in `excluded` (separate
// measurements nested in the phase) are dropped from both the layers and the wall.
struct Breakdown {
  double wall_s = 0;
  double untraced_wall_s = 0;
  std::map<std::string, double> self_s;
  double unattributed_s = 0;
};

Breakdown MakeBreakdown(const SpanTrace& trace, double wall_s, double untraced_wall_s,
                        const std::string& excluded) {
  Breakdown b;
  b.self_s = trace.SelfTimes();
  double excluded_s = 0;
  if (!excluded.empty() && b.self_s.count(excluded) != 0) {
    excluded_s = trace.TotalTimes()[excluded];
    b.self_s.erase(excluded);
  }
  b.wall_s = wall_s - excluded_s;
  b.untraced_wall_s = untraced_wall_s;
  double attributed = 0;
  for (const auto& [layer, seconds] : b.self_s) {
    attributed += seconds;
  }
  b.unattributed_s = b.wall_s - attributed;
  return b;
}

std::string BreakdownJson(const Breakdown& b) {
  std::string out = "{\"traced_wall_s\": " + Num(b.wall_s);
  out += ", \"untraced_wall_s\": " + Num(b.untraced_wall_s);
  out += ", \"overhead_s\": " + Num(b.wall_s - b.untraced_wall_s);
  out += ", \"unattributed_s\": " + Num(b.unattributed_s);
  out += ", \"self_s\": {";
  bool first = true;
  for (const auto& [layer, seconds] : b.self_s) {
    out += (first ? "" : ", ") + JsonString(layer) + ": " + Num(seconds);
    first = false;
  }
  return out + "}}";
}

// Everything the per-layer metrics are computed from.
struct LayerInputs {
  LayerTotals layers;
  SpanTrace layer_trace;  // The layered campaigns' spans (fuzz ... explorer, report).
  ReplicaTotals replica;
  ReplayTally replay;
  FleetLoopStats fleet;  // Fleet pass (the probe on explore/prepare).
  Usage workload_usage;  // Untraced workload phase.
  double workload_wall_s = 0;
};

void PutLayerMetrics(Metrics* m, const Prologue& p, const LayerInputs& in,
                     const Breakdown& b, double ref_end_ms) {
  const LayerTotals& L = in.layers;
  std::map<std::string, double> self = in.layer_trace.SelfTimes();
  double campaigns = std::max(1, L.campaigns);
  double trials = static_cast<double>(L.trials);
  double replica_trials = static_cast<double>(in.replica.trials);
  double sim_trial_us = Ratio(in.replica.trial_s, replica_trials) * 1e6;
  double detectors_us = Ratio(in.replica.detectors_s, replica_trials) * 1e6;
  double equiv_us = Ratio(in.replica.equiv_s, replica_trials) * 1e6;
  double fleet_campaigns = std::max(1, in.fleet.attempted);

  Put(m, "boot.vm_ms", Median(p.boot_ms), "ms");
  Put(m, "fuzz.execs_per_s", Ratio(static_cast<double>(L.fuzz_execs), self["fuzz"]), "1/s");
  Put(m, "fuzz.programs", L.fuzz_programs / campaigns, "count");
  Put(m, "profile.us_per_program",
         Ratio(self["profile"], static_cast<double>(L.profiled)) * 1e6, "us");
  Put(m, "pmc.identify_ms", self["pmc"] / campaigns * 1e3, "ms");
  Put(m, "pmc.pmcs", L.pmcs / campaigns, "count");
  Put(m, "cluster.ms", self["cluster"] / campaigns * 1e3, "ms");
  Put(m, "select.ms", self["select"] / campaigns * 1e3, "ms");
  Put(m, "explorer.ms_per_test_p50", Median(L.test_s) * 1e3, "ms");
  Put(m, "explorer.trials_per_s", Ratio(trials, L.explore_s), "1/s");
  Put(m, "explorer.trials_per_test", Ratio(trials, static_cast<double>(L.tests)), "count");
  Put(m, "explorer.pruned_share", Ratio(static_cast<double>(L.trials_pruned), trials),
         "ratio");
  Put(m, "explorer.saturated_share",
         Ratio(static_cast<double>(L.tests_saturated), static_cast<double>(L.tests)), "ratio");
  Put(m, "explorer.switches_per_trial",
         Ratio(static_cast<double>(L.switch_decisions), trials), "count");
  Put(m, "explorer.unattributed_us_per_trial",
         Ratio(L.explore_nomin_s, trials) * 1e6 - (sim_trial_us + detectors_us + equiv_us),
         "us");
  Put(m, "sim.restore_us_per_trial",
         Ratio(static_cast<double>(L.explore_restore_ns) * 1e-3,
               static_cast<double>(L.explore_restores)),
         "us");
  Put(m, "sim.trial_us", sim_trial_us, "us");
  Put(m, "sim.ctx_switches_per_run",
         Ratio(static_cast<double>(in.replica.ctx_switches), replica_trials), "count");
  Put(m, "sim.sys_cpu_share", Ratio(in.workload_usage.sys_s, in.workload_usage.cpu_s()),
         "ratio");
  Put(m, "detectors.us_per_trial", detectors_us, "us");
  Put(m, "equiv.us_per_trial", equiv_us, "us");
  Put(m, "minimize.share_of_explore", Ratio(L.explore_s - L.explore_nomin_s, L.explore_s),
         "ratio");
  std::vector<double> replay_ms;
  for (double s : in.replay.seconds) {
    replay_ms.push_back(s * 1e3);
  }
  Put(m, "replay.ms_p50", Median(replay_ms), "ms");
  Put(m, "replay.exact_share",
         Ratio(in.replay.exact, in.replay.replayed + in.replay.missing), "ratio");
  Put(m, "report.render_ms", self["report"] / campaigns * 1e3, "ms");
  Put(m, "checkpoint.flush_ms_per_campaign",
         static_cast<double>(in.fleet.flush_ns) * 1e-6 / fleet_campaigns, "ms");
  Put(m, "checkpoint.flushes_per_campaign",
         static_cast<double>(in.fleet.flushes) / fleet_campaigns, "count");
  Put(m, "checkpoint.bytes_per_campaign",
         static_cast<double>(in.fleet.bytes) / fleet_campaigns, "B");
  Put(m, "serve.queue_wait_s_p50", Median(in.fleet.queue_wait_s), "s");
  Put(m, "serve.status_us_p50", Median(in.fleet.status_us), "us");
  Put(m, "serve.status_us_p99", Quantile(in.fleet.status_us, 0.99), "us");
  Put(m, "pipeline.busy_cores", Ratio(in.workload_usage.cpu_s(), in.workload_wall_s),
         "cores");
  Put(m, "host.ref_ms", p.ref_start_ms, "ms");
  Put(m, "host.ref_end_ms", ref_end_ms, "ms");
  Put(m, "trace.wall_s", b.wall_s, "s");
  Put(m, "trace.overhead_share", Ratio(b.wall_s - b.untraced_wall_s, b.untraced_wall_s),
         "ratio");
  Put(m, "trace.unattributed_share", Ratio(b.unattributed_s, b.wall_s), "ratio");
}

// Layered replica of `runs` on the global pool's (single) worker VM, plus the trial
// replica and the replay check of every run's report.
void LayerPasses(const Prologue& p, const std::vector<StandaloneRun>& runs, LayerInputs* in,
                 double* traced_wall_s, RunOutput* out) {
  WorkerPool::Global().Run(1, [&](PoolWorker& worker) {
    KernelVm& vm = snowboard::PoolWorkerVm(worker);
    SpanTrace& trace = in->layer_trace;
    double start = NowSeconds();
    for (size_t i = 0; i < runs.size(); i++) {
      const StandaloneRun& run = runs[i];
      PinForCampaign(p, i, out);
      std::string error;
      if (!RunLayeredCampaign(vm, run.options, run.result, /*nomin_pass=*/true, &trace,
                              &in->layers, &error)) {
        out->correct = false;
        out->errors.push_back(error);
      }
      ScopedSpan span(&trace, "report");
      snowboard::CampaignReport report = snowboard::BuildCampaignReport(run.options, run.result);
      std::string json = snowboard::RenderReportJson(report);
      std::string html = snowboard::RenderReportHtml(report);
      if (json.empty() || html.empty()) {
        out->correct = false;
      }
    }
    *traced_wall_s = NowSeconds() - start;
    RunTrialReplica(vm, in->layers.explored, /*max_seconds=*/1.0, &in->replica);
  });
}

void RunTracedStandalone(const RunArgs& args, const Prologue& p, RunOutput* out, Metrics* m,
                         double* ref_end_ms) {
  auto spec_for = SpecFor(args.workload);
  // Untraced pass, traced pass (plus its minimization-off rerun), replay, and a 1-campaign
  // fleet probe share the run.
  size_t n = PlanCampaigns(args, 1, 0.3);
  LayerInputs in;
  std::vector<StandaloneRun> runs;
  Usage before = ReadUsage();
  for (size_t i = 0; i < n; i++) {
    PinForCampaign(p, i, out);
    runs.push_back(RunStandaloneCampaign(spec_for(args.seed, i), 1));
    in.workload_wall_s += runs.back().wall_s;
  }
  in.workload_usage = ReadUsage() - before;
  double traced_wall_s = 0;
  LayerPasses(p, runs, &in, &traced_wall_s, out);
  std::vector<CheckedCampaign> checked;
  CheckStandalone(runs, &in.replay, &checked);
  Tally(checked, out);

  // Fleet probe: the first campaign again, through the fleet service, for the checkpoint
  // and serve layers this workload does not otherwise reach.
  KernelVm client_vm;
  CampaignSpec probe = spec_for(args.seed, 0);
  probe.name = "probe";
  if (!RunFleetLoop({probe}, 1, args.work_dir + "/probe", client_vm, nullptr, &in.fleet)) {
    out->correct = false;
    out->errors.insert(out->errors.end(), in.fleet.errors.begin(), in.fleet.errors.end());
  }
  out->attempted += in.fleet.attempted;
  out->failed += in.fleet.attempted - in.fleet.ok;

  Breakdown b = MakeBreakdown(in.layer_trace, traced_wall_s, in.workload_wall_s,
                              "explorer.nomin");
  out->trace_json = BreakdownJson(b);
  *ref_end_ms = HostRefMs();
  PutLayerMetrics(m, p, in, b, *ref_end_ms);
}

void RunTracedFleet(const RunArgs& args, const Prologue& p, RunOutput* out, Metrics* m,
                    double* ref_end_ms) {
  size_t n = PlanCampaigns(args, p.workers, 0.35);
  std::vector<CampaignSpec> specs;
  for (size_t i = 0; i < n; i++) {
    specs.push_back(FleetSpec(args.seed, i));
  }
  LayerInputs in;
  KernelVm client_vm;
  FleetLoopStats untraced;
  bool ok =
      RunFleetLoop(specs, p.workers, args.work_dir + "/fleet", client_vm, nullptr, &untraced);
  in.workload_usage = untraced.usage;
  in.workload_wall_s = untraced.phase_s;

  SpanTrace fleet_trace;
  ok = RunFleetLoop(specs, p.workers, args.work_dir + "/fleet-traced", client_vm,
                    &fleet_trace, &in.fleet) && ok;
  if (!ok) {
    out->correct = false;
  }
  in.replay = in.fleet.replay;
  for (const FleetLoopStats* stats : {&untraced, &in.fleet}) {
    out->attempted += stats->attempted;
    out->failed += stats->attempted - stats->ok;
    out->errors.insert(out->errors.end(), stats->errors.begin(), stats->errors.end());
  }

  // The layers inside the fleet's campaigns: one campaign of the fleet mix, layer by layer.
  std::vector<StandaloneRun> runs = {RunStandaloneCampaign(specs[0], 1)};
  double layered_wall_s = 0;
  LayerPasses(p, runs, &in, &layered_wall_s, out);

  Breakdown b = MakeBreakdown(fleet_trace, in.fleet.phase_s, untraced.phase_s, "");
  out->trace_json = BreakdownJson(b);
  *ref_end_ms = HostRefMs();
  PutLayerMetrics(m, p, in, b, *ref_end_ms);
}

}  // namespace

std::string ResultJson(const RunOutput& out) {
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); i++) {
    const Metric& m = out.metrics[i];
    json += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "}}";
}

bool IsWorkload(const std::string& name) {
  return name == "explore" || name == "prepare" || name == "fleet";
}

RunOutput RunWorkload(const RunArgs& args) {
  snowboard::SetLogLevel(snowboard::LogLevel::kWarn);
  RunOutput out;
  std::error_code ignored;
  std::filesystem::remove_all(args.work_dir, ignored);
  std::filesystem::create_directories(args.work_dir, ignored);
  std::string storage_fs = FsType(args.work_dir);

  Prologue p = RunPrologue(args);
  if (!p.ok) {
    out.correct = false;
    out.errors.push_back("set-up failed (pinning or fleet bring-up)");
  }
  Metrics m;
  double ref_end_ms = 0;
  if (!args.trace) {
    if (args.workload == "fleet") {
      RunFleetWorkload(args, p, &out, &m);
    } else {
      RunStandaloneWorkload(args, p, &out, &m);
    }
    ref_end_ms = HostRefMs();
  } else if (args.workload == "fleet") {
    RunTracedFleet(args, p, &out, &m, &ref_end_ms);
  } else {
    RunTracedStandalone(args, p, &out, &m, &ref_end_ms);
  }
  out.metrics = std::move(m);
  out.record_json =
      RecordJson(args, p, ref_end_ms, static_cast<size_t>(out.attempted), storage_fs);
  if (out.failed > 0 || out.attempted == 0) {
    out.correct = false;
  }
  std::filesystem::remove_all(args.work_dir, ignored);
  return out;
}

}  // namespace perfbench
