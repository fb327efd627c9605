// Determinism harness for the parallel campaign-preparation pipeline: every deterministic
// artifact of RunSnowboardPipeline — corpus, profiles, PMC table (keys, multiplicities,
// sampled exemplar pairs), cluster tables, execution stats, and the findings log — must be
// byte-identical whether the stages run on 1, 2, or 4 workers. This is the
// parallel-speed/bit-identical-results bar of deterministic-parallelism systems (Aviram et
// al.; O'Callahan et al.), applied to our §4.4.1 fleet analog.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "src/fuzz/generator.h"
#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/port.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/snowboard/serialize.h"
#include "src/snowboard/stats.h"
#include "src/util/counters.h"

namespace snowboard {
namespace {

PipelineOptions BaseOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 40;
  options.corpus.target_size = 32;
  options.strategy = Strategy::kSInsPair;
  options.max_concurrent_tests = 24;
  options.explorer.num_trials = 8;
  options.num_workers = num_workers;
  return options;
}

void ExpectSameProfiles(const std::vector<SequentialProfile>& a,
                        const std::vector<SequentialProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].test_id, b[i].test_id) << "profile " << i;
    EXPECT_EQ(a[i].ok, b[i].ok) << "profile " << i;
    EXPECT_EQ(a[i].program, b[i].program) << "profile " << i;
    EXPECT_EQ(a[i].accesses, b[i].accesses) << "profile " << i;
  }
}

void ExpectSamePmcs(const std::vector<Pmc>& a, const std::vector<Pmc>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].key, b[i].key) << "pmc " << i;
    EXPECT_EQ(a[i].total_pairs, b[i].total_pairs) << "pmc " << i;  // Pair multiplicity.
    ASSERT_EQ(a[i].pairs.size(), b[i].pairs.size()) << "pmc " << i;
    for (size_t p = 0; p < a[i].pairs.size(); p++) {
      EXPECT_EQ(a[i].pairs[p].write_test, b[i].pairs[p].write_test) << "pmc " << i;
      EXPECT_EQ(a[i].pairs[p].read_test, b[i].pairs[p].read_test) << "pmc " << i;
    }
  }
  EXPECT_EQ(PmcTableDigest(a), PmcTableDigest(b));
}

TEST(PipelineDeterminismTest, PreparedCampaignInvariantAcrossWorkerCounts) {
  PreparedCampaign base = PrepareCampaign(BaseOptions(1));
  ASSERT_GT(base.corpus.size(), 10u);
  ASSERT_GT(base.pmcs.size(), 50u);
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    PreparedCampaign campaign = PrepareCampaign(BaseOptions(workers));
    ASSERT_EQ(campaign.corpus.size(), base.corpus.size());
    for (size_t i = 0; i < base.corpus.size(); i++) {
      EXPECT_EQ(campaign.corpus[i], base.corpus[i]) << "corpus " << i;
    }
    ExpectSameProfiles(campaign.profiles, base.profiles);
    ExpectSamePmcs(campaign.pmcs, base.pmcs);
  }
}

TEST(PipelineDeterminismTest, ClusterTablesInvariantAcrossWorkerCounts) {
  PreparedCampaign campaign = PrepareCampaign(BaseOptions(2));
  ASSERT_GT(campaign.pmcs.size(), 0u);
  for (Strategy strategy : kAllClusteringStrategies) {
    SCOPED_TRACE(StrategyName(strategy));
    std::vector<PmcCluster> sequential = ClusterPmcs(campaign.pmcs, strategy, 1);
    for (int workers : {2, 3, 4}) {
      std::vector<PmcCluster> sharded = ClusterPmcs(campaign.pmcs, strategy, workers);
      ASSERT_EQ(sharded.size(), sequential.size()) << "num_workers=" << workers;
      EXPECT_EQ(ClusterTableDigest(sharded), ClusterTableDigest(sequential))
          << "num_workers=" << workers;
    }
  }
}

// Sharded-merge determinism: per-worker counter shards drain into the global block with
// commutative additions, so work-proportional counter TOTALS — profiles executed,
// concurrent tests run, snapshot restores performed — must be exactly equal at any worker
// count, and the masked report.json (whose deterministic portion
// embeds the funnel those counters feed) must stay byte-identical. Only totals invariant
// under scheduling are compared: the full/delta restore SPLIT varies with worker count
// (each worker VM's first restore is a full one), so the sum is asserted, not the parts.
TEST(PipelineDeterminismTest, ShardedCounterTotalsAndMaskedReportInvariant) {
  struct Totals {
    uint64_t profile_runs = 0;
    uint64_t tests_run = 0;
    uint64_t restores = 0;
  };
  auto run = [](const PipelineOptions& options, std::string* masked_report) {
    ResetPipelineCounters();
    PipelineResult result = RunSnowboardPipeline(options);
    *masked_report = MaskReportVolatile(RenderReportJson(BuildCampaignReport(options, result)));
    const PipelineCounters& counters = GlobalPipelineCounters();
    Totals totals;
    totals.profile_runs = counters.vm_profile_runs.load();
    totals.tests_run = counters.concurrent_tests_run.load();
    totals.restores =
        counters.snapshot_full_restores.load() + counters.snapshot_delta_restores.load();
    return totals;
  };

  std::string golden_report;
  Totals golden = run(BaseOptions(1), &golden_report);
  ASSERT_GT(golden.tests_run, 0u);
  ASSERT_GT(golden.profile_runs, 0u);
  ASSERT_GT(golden.restores, golden.tests_run);  // At least one restore per trial.

  for (int workers : {2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    std::string masked_report;
    Totals totals = run(BaseOptions(workers), &masked_report);
    EXPECT_EQ(masked_report, golden_report);
    EXPECT_EQ(totals.profile_runs, golden.profile_runs);
    EXPECT_EQ(totals.tests_run, golden.tests_run);
    EXPECT_EQ(totals.restores, golden.restores);
  }
}

// Masked-report byte-identity with every detector firing: the handcrafted detector-prey
// suite (#18-#22) plus the Figure 1 l2tp pair produce a report whose findings span race,
// console/panic, deadlock, lost-wakeup, AND livelock kinds. The masked report.json —
// including the new per-finding "kind" column and the detector witnesses in the evidence —
// must be byte-identical at 1/2/4 workers, the same bar the race/console-era report is
// held to. The handcrafted tests (and an empty PMC table, which the pairing scheduler never
// consults) seed the campaign, so only exploration runs.
TEST(PipelineDeterminismTest, MaskedReportWithAllDetectorKindsInvariant) {
  auto call = [](uint32_t nr, std::initializer_list<int64_t> args) {
    Call c;
    c.nr = nr;
    int i = 0;
    for (int64_t a : args) {
      c.args[i++] = Arg::Const(a);
    }
    return c;
  };
  auto program = [](std::initializer_list<Call> calls) {
    Program p;
    p.calls = calls;
    return p;
  };
  auto pair = [](Program writer, Program reader, int base_id) {
    ConcurrentTest test;
    test.writer = std::move(writer);
    test.reader = std::move(reader);
    test.write_test = base_id;
    test.read_test = base_id + 1;
    return test;
  };
  std::vector<Program> seeds = SeedPrograms();
  std::vector<ConcurrentTest> tests;
  tests.push_back(pair(seeds[0], seeds[1], 0));  // Figure 1 l2tp pair: races + panics.
  tests.push_back(pair(program({call(kSysPortRecv, {0, kPortRecvWait})}),
                       program({call(kSysPortSend, {0})}), 100));
  tests.push_back(pair(program({call(kSysMount, {}), call(kSysMount, {}),
                                call(kSysMount, {})}),
                       program({call(kSysUmount, {0}), call(kSysUmount, {0}),
                                call(kSysUmount, {0})}),
                       102));
  Program mount_umount_wait = program({call(kSysMount, {}), call(kSysUmount, {kUmountWait})});
  tests.push_back(pair(mount_umount_wait, mount_umount_wait, 104));
  tests.push_back(pair(program({call(kSysPortTransfer, {0, 1}), call(kSysPortTransfer, {0, 1})}),
                       program({call(kSysPortTransfer, {1, 0}), call(kSysPortTransfer, {1, 0})}),
                       106));

  CampaignSeeds campaign_seeds;
  campaign_seeds.pmcs.emplace();
  campaign_seeds.tests = tests;
  auto run = [&campaign_seeds](int workers) {
    PipelineOptions options;
    options.seed = 7;
    options.strategy = Strategy::kRandomPairing;
    options.num_workers = workers;
    options.explorer.seed = 2021;
    options.explorer.num_trials = 256;
    options.explorer.max_instructions = 60'000;
    EXPECT_EQ(options.explorer.detectors, kDetectorAll);  // All five detectors enabled.
    ResetPipelineCounters();
    PipelineResult result = RunSnowboardPipeline(options, campaign_seeds);
    CampaignReport report = BuildCampaignReport(options, result);
    return MaskReportVolatile(RenderReportJson(report));
  };

  const std::string golden = run(1);
  // The report must actually carry every finding kind, or the invariance is vacuous.
  for (const char* kind : {"\"race\"", "\"deadlock\"", "\"lost-wakeup\"", "\"livelock\""}) {
    EXPECT_NE(golden.find(kind), std::string::npos) << "report lacks a " << kind
                                                    << " finding:\n" << golden;
  }
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_EQ(run(workers), golden);
  }
}

// Seeded artifacts (CampaignSeeds) enter the engine as pre-resolved stages: the campaign
// they produce must match the one that computed those artifacts itself, and the stages
// that feed only seeded artifacts must not run.
TEST(PipelineDeterminismTest, SeededArtifactsReproduceTheComputedCampaign) {
  const PipelineOptions options = BaseOptions(2);
  const PipelineResult computed = RunSnowboardPipeline(options);
  ASSERT_GT(computed.tests_executed, 0u);
  const PreparedCampaign prepared = PrepareCampaign(options);
  // PrepareCampaign computes exactly the engine's artifacts.
  EXPECT_EQ(prepared.corpus.size(), computed.corpus_size);
  EXPECT_EQ(PmcTableDigest(prepared.pmcs), computed.pmc_table_digest);
  EXPECT_EQ(prepared.cluster_count, computed.cluster_count);
  EXPECT_EQ(prepared.tests.size(), computed.tests_generated);

  auto expect_same_exploration = [&computed](const PipelineResult& seeded) {
    EXPECT_EQ(seeded.tests_generated, computed.tests_generated);
    EXPECT_EQ(seeded.tests_executed, computed.tests_executed);
    EXPECT_EQ(seeded.total_trials, computed.total_trials);
    EXPECT_EQ(seeded.tests_with_bug, computed.tests_with_bug);
    EXPECT_EQ(seeded.channel_exercised, computed.channel_exercised);
    EXPECT_EQ(FindingsDigest(seeded.findings), FindingsDigest(computed.findings));
  };
  {
    SCOPED_TRACE("corpus + PMCs seeded (the staged CLI run)");
    CampaignSeeds seeds;
    seeds.corpus = prepared.corpus;
    seeds.pmcs = prepared.pmcs;
    ResetPipelineCounters();
    PipelineResult seeded = RunSnowboardPipeline(options, seeds);
    EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs.load(), 0u) << "profiling ran";
    EXPECT_EQ(seeded.corpus_size, computed.corpus_size);
    EXPECT_EQ(seeded.profiled_ok, 0u);
    EXPECT_EQ(seeded.pmc_table_digest, computed.pmc_table_digest);
    EXPECT_EQ(seeded.cluster_count, computed.cluster_count);
    expect_same_exploration(seeded);
  }
  {
    SCOPED_TRACE("PMCs + tests seeded: only exploration runs");
    CampaignSeeds seeds;
    seeds.pmcs = prepared.pmcs;
    seeds.tests = prepared.tests;
    ResetPipelineCounters();
    PipelineResult seeded = RunSnowboardPipeline(options, seeds);
    EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs.load(), 0u) << "profiling ran";
    EXPECT_EQ(seeded.corpus_size, 0u) << "the corpus feeds nothing here and must not run";
    EXPECT_EQ(seeded.cluster_count, 0u);
    expect_same_exploration(seeded);
  }
  {
    SCOPED_TRACE("corpus seeded: profiling and identification still run");
    CampaignSeeds seeds;
    seeds.corpus = prepared.corpus;
    EXPECT_EQ(SerializePipelineResult(RunSnowboardPipeline(options, seeds)),
              SerializePipelineResult(computed));
  }
}

// A seeded artifact is never persisted, so seeding a checkpointed campaign is a caller
// bug, not a mode: the engine refuses it.
TEST(PipelineDeterminismTest, SeedsWithCheckpointDirAreRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  PipelineOptions options = BaseOptions(1);
  options.checkpoint_dir = std::string(::testing::TempDir()) + "sb_seeded_checkpoint";
  CampaignSeeds seeds;
  seeds.pmcs.emplace();
  EXPECT_DEATH(RunSnowboardPipeline(options, seeds), "SB_CHECK failed");
}

// The serialized result and every finding are byte-identical at 1/2/4/8 workers, for a
// PMC strategy and for a pairing baseline (whose test list depends only on the corpus,
// so exploration genuinely overlaps the profile tail).
TEST(PipelineDeterminismTest, FullPipelineStatsAndFindingsInvariant) {
  for (Strategy strategy : {Strategy::kSInsPair, Strategy::kRandomPairing}) {
    SCOPED_TRACE(StrategyName(strategy));
    auto options_for = [strategy](int workers) {
      PipelineOptions options = BaseOptions(workers);
      options.strategy = strategy;
      return options;
    };
    PipelineResult base = RunSnowboardPipeline(options_for(1));
    ASSERT_GT(base.tests_executed, 0u);
    for (int workers : {2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
      PipelineResult result = RunSnowboardPipeline(options_for(workers));
      EXPECT_EQ(SerializePipelineResult(result), SerializePipelineResult(base));
      EXPECT_EQ(result.corpus_size, base.corpus_size);
      EXPECT_EQ(result.profiled_ok, base.profiled_ok);
      EXPECT_EQ(result.shared_accesses, base.shared_accesses);
      EXPECT_EQ(result.pmc_count, base.pmc_count);
      EXPECT_EQ(result.total_pmc_pairs, base.total_pmc_pairs);
      EXPECT_EQ(result.cluster_count, base.cluster_count);
      EXPECT_EQ(result.tests_generated, base.tests_generated);
      EXPECT_EQ(result.tests_executed, base.tests_executed);
      EXPECT_EQ(result.tests_with_bug, base.tests_with_bug);
      EXPECT_EQ(result.channel_exercised, base.channel_exercised);
      EXPECT_EQ(result.total_trials, base.total_trials);

      EXPECT_EQ(result.findings.total_findings(), base.findings.total_findings());
      ASSERT_EQ(result.findings.first_findings().size(), base.findings.first_findings().size());
      auto base_it = base.findings.first_findings().begin();
      for (const auto& [id, finding] : result.findings.first_findings()) {
        EXPECT_EQ(id, base_it->first);
        EXPECT_EQ(finding.issue_id, base_it->second.issue_id);
        EXPECT_EQ(finding.evidence, base_it->second.evidence);
        EXPECT_EQ(finding.test_index, base_it->second.test_index);
        EXPECT_EQ(finding.trial, base_it->second.trial);
        EXPECT_EQ(finding.duplicate_input, base_it->second.duplicate_input);
        // The shippable reproducer: the token (schedule, fingerprint, crc and all) must be
        // byte-identical regardless of worker count.
        EXPECT_EQ(finding.replay_token, base_it->second.replay_token);
        ++base_it;
      }
      EXPECT_EQ(result.schedule_switches_orig, base.schedule_switches_orig);
      EXPECT_EQ(result.schedule_switches_min, base.schedule_switches_min);
      EXPECT_EQ(FindingsDigest(result.findings), FindingsDigest(base.findings));
    }
  }
}

}  // namespace
}  // namespace snowboard
