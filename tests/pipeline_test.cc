// Tests for the end-to-end pipeline plumbing: stage composition, budgets, baselines,
// worker-parallel execution, and determinism.
#include <gtest/gtest.h>

#include "src/snowboard/pipeline.h"

namespace snowboard {
namespace {

PipelineOptions SmallOptions(Strategy strategy) {
  PipelineOptions options;
  options.seed = 1;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 40;
  options.corpus.target_size = 40;
  options.strategy = strategy;
  options.max_concurrent_tests = 40;
  options.explorer.num_trials = 8;
  options.num_workers = 2;
  return options;
}

TEST(PrepareCampaignTest, StagesProduceArtifacts) {
  PipelineOptions options = SmallOptions(Strategy::kSInsPair);
  PreparedCampaign campaign = PrepareCampaign(options);
  EXPECT_GT(campaign.corpus.size(), 10u);
  EXPECT_EQ(campaign.profiles.size(), campaign.corpus.size());
  EXPECT_GT(campaign.pmcs.size(), 50u);
  for (const SequentialProfile& profile : campaign.profiles) {
    EXPECT_TRUE(profile.ok);
  }
}

TEST(GenerateTestsTest, BudgetAndClusterCount) {
  PipelineOptions options = SmallOptions(Strategy::kSInsPair);
  PreparedCampaign campaign = PrepareCampaign(options);
  EXPECT_GT(campaign.cluster_count, 10u);
  EXPECT_LE(campaign.tests.size(), options.max_concurrent_tests);
  for (const ConcurrentTest& test : campaign.tests) {
    EXPECT_GE(test.write_test, 0);
    EXPECT_LT(static_cast<size_t>(test.write_test), campaign.corpus.size());
  }
}

TEST(GenerateTestsTest, BaselinesSkipClustering) {
  PipelineOptions options = SmallOptions(Strategy::kRandomPairing);
  PreparedCampaign campaign = PrepareCampaign(options);
  EXPECT_EQ(campaign.cluster_count, 0u);
  EXPECT_EQ(campaign.tests.size(), options.max_concurrent_tests);

  options.strategy = Strategy::kDuplicatePairing;
  campaign = PrepareCampaign(options);
  EXPECT_FALSE(campaign.tests.empty());
  for (const ConcurrentTest& test : campaign.tests) {
    EXPECT_EQ(test.write_test, test.read_test);
  }
}

TEST(PipelineTest, SInsPairFindsMultipleIssues) {
  PipelineOptions options = SmallOptions(Strategy::kSInsPair);
  PipelineResult result = RunSnowboardPipeline(options);
  EXPECT_EQ(result.tests_executed, result.tests_generated);
  EXPECT_GT(result.tests_with_bug, 0u);
  EXPECT_GT(result.channel_exercised, 0u);  // Some predicted channels actually fired.
  // Even a small budget finds several distinct Table 2 issues (at minimum the ubiquitous
  // #13 plus some harmful ones).
  size_t classified = 0;
  for (const auto& [id, finding] : result.findings.first_findings()) {
    classified += id != 0 ? 1 : 0;
  }
  EXPECT_GE(classified, 4u);
  EXPECT_TRUE(result.findings.Found(13));
}

TEST(PipelineTest, SingleWorkerIsDeterministic) {
  PipelineOptions options = SmallOptions(Strategy::kSInsPair);
  options.num_workers = 1;
  options.max_concurrent_tests = 20;
  PipelineResult a = RunSnowboardPipeline(options);
  PipelineResult b = RunSnowboardPipeline(options);
  EXPECT_EQ(a.pmc_count, b.pmc_count);
  EXPECT_EQ(a.cluster_count, b.cluster_count);
  EXPECT_EQ(a.tests_with_bug, b.tests_with_bug);
  EXPECT_EQ(a.channel_exercised, b.channel_exercised);
  ASSERT_EQ(a.findings.first_findings().size(), b.findings.first_findings().size());
  auto it_b = b.findings.first_findings().begin();
  for (const auto& [id, finding] : a.findings.first_findings()) {
    EXPECT_EQ(id, it_b->first);
    EXPECT_EQ(finding.test_index, it_b->second.test_index);
    ++it_b;
  }
}

TEST(PipelineTest, WorkersFindSameIssueSet) {
  // Parallel execution changes discovery order but not the set of found issues.
  PipelineOptions options = SmallOptions(Strategy::kSIns);
  options.max_concurrent_tests = 30;
  options.num_workers = 1;
  PipelineResult serial = RunSnowboardPipeline(options);
  options.num_workers = 4;
  PipelineResult parallel = RunSnowboardPipeline(options);
  EXPECT_EQ(serial.tests_executed, parallel.tests_executed);
  std::set<int> serial_ids;
  std::set<int> parallel_ids;
  for (const auto& [id, finding] : serial.findings.first_findings()) {
    serial_ids.insert(id);
  }
  for (const auto& [id, finding] : parallel.findings.first_findings()) {
    parallel_ids.insert(id);
  }
  EXPECT_EQ(serial_ids, parallel_ids);
}

TEST(PipelineTest, RandomPairingBaselineRuns) {
  PipelineOptions options = SmallOptions(Strategy::kRandomPairing);
  PipelineResult result = RunSnowboardPipeline(options);
  EXPECT_EQ(result.cluster_count, 0u);
  EXPECT_EQ(result.tests_executed, options.max_concurrent_tests);
  EXPECT_EQ(result.channel_exercised, 0u);  // No hints, no channel accounting.
  EXPECT_TRUE(result.findings.Found(13));   // The allocator race falls out of anything.
}

TEST(PipelineTest, StageTimesPopulated) {
  PipelineOptions options = SmallOptions(Strategy::kSCh);
  options.max_concurrent_tests = 10;
  PipelineResult result = RunSnowboardPipeline(options);
  EXPECT_GT(result.corpus_seconds + result.profile_seconds + result.identify_seconds +
                result.cluster_seconds + result.execute_seconds,
            0.0);
  EXPECT_GT(result.shared_accesses, 0u);
  EXPECT_GT(result.total_pmc_pairs, result.pmc_count);
}

}  // namespace
}  // namespace snowboard
