// Golden-file invariant for the campaign report: report.json, with its volatile lines
// masked (wall-clock seconds, worker count, process counters), must be byte-identical
// whether the campaign ran on 1, 2, or 4 workers — the determinism-harness bar restated
// over the report artifact, so CI can diff reports across machines and configurations.
#include <gtest/gtest.h>

#include <string>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
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

std::string MaskedReportFor(int num_workers) {
  // Counters feed the run.* metrics; reset between campaigns for clean attribution.
  ResetPipelineCounters();
  PipelineOptions options = BaseOptions(num_workers);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  return MaskReportVolatile(RenderReportJson(report));
}

TEST(ReportGoldenTest, MaskedReportJsonInvariantAcrossWorkerCounts) {
  std::string base = MaskedReportFor(1);
  ASSERT_FALSE(base.empty());
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    EXPECT_EQ(MaskedReportFor(workers), base);
  }
}

TEST(ReportGoldenTest, ReportCarriesSchemaAndFullFunnel) {
  ResetPipelineCounters();
  PipelineOptions options = BaseOptions(2);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  std::string json = RenderReportJson(report);

  EXPECT_NE(json.find("\"schema\": \"snowboard-report-v1\""), std::string::npos);
  for (const char* stage :
       {"corpus_programs", "pmcs_identified", "pmc_pairs_total", "clusters",
        "tests_executed", "tests_with_findings"}) {
    EXPECT_NE(json.find(std::string("\"stage\": \"") + stage + "\""), std::string::npos)
        << "funnel stage " << stage << " missing";
  }
  for (const char* name : {"corpus", "profile", "identify", "cluster", "execute"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""), std::string::npos)
        << "stage timing " << name << " missing";
  }
  // This configuration reliably surfaces findings (see pipeline_determinism_test); the
  // report must carry them with their triage fields.
  EXPECT_FALSE(report.findings.empty());
  EXPECT_NE(json.find("\"issue_id\":"), std::string::npos);

  // Masking leaves no un-masked wall-clock or worker-shape values behind.
  std::string masked = MaskReportVolatile(json);
  EXPECT_NE(masked.find("\"num_workers\": \"<masked>\""), std::string::npos);
  EXPECT_EQ(masked.find("\"wall_seconds\": 0."), std::string::npos);
  EXPECT_NE(masked.find("\"schema\": \"snowboard-report-v1\""), std::string::npos);
}

TEST(ReportGoldenTest, HtmlIsSelfContainedAndCarriesFindings) {
  ResetPipelineCounters();
  PipelineOptions options = BaseOptions(2);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  std::string html = RenderReportHtml(report);

  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("prefers-color-scheme"), std::string::npos);
  // Self-contained: no external fetches, no scripts.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  for (const FunnelRow& row : report.funnel) {
    EXPECT_NE(html.find(row.title), std::string::npos) << row.title;
  }
  for (const ReportFinding& finding : report.findings) {
    EXPECT_NE(html.find(finding.summary), std::string::npos) << finding.summary;
  }
}

}  // namespace
}  // namespace snowboard
