// Table 3 reproduction: "Testing results by each concurrent test generation method."
//
// Eleven generation methods — the 8 Table 1 strategies, Random S-INS-PAIR, and the Random/
// Duplicate pairing baselines — each run from scratch with the same corpus, the same
// per-method test budget (the analog of the paper's one-week-per-instance box), and
// independent execution. Reported per method: exemplar PMCs (clusters), tested PMCs, and
// the issues found with the test index of first discovery (the "days taken to find" proxy).
#include "bench/bench_common.h"

namespace snowboard {
namespace {

constexpr Strategy kMethods[] = {
    Strategy::kSFull,         Strategy::kSCh,
    Strategy::kSChNull,       Strategy::kSChUnaligned,
    Strategy::kSChDouble,     Strategy::kSIns,
    Strategy::kSInsPair,      Strategy::kSMem,
    Strategy::kRandomSInsPair, Strategy::kRandomPairing,
    Strategy::kDuplicatePairing,
};

int Run() {
  bench::PrintHeader("Table 3 — per-generation-method results (equal test budget each)");
  const size_t kBudget = 300;
  std::printf("budget: %zu concurrent tests per method, 24 trials per test\n\n", kBudget);
  std::printf("%-19s %10s %8s %7s  %s\n", "method", "exemplars", "tested", "issues",
              "issues found (first-test index)");

  // Shared stages 1-2, as in the paper (one profiling pass feeds all instances).
  const CampaignSeeds seeds = bench::CorpusAndPmcSeeds(
      PrepareCampaign(bench::CanonicalOptions(Strategy::kSInsPair, kBudget, 4)));

  size_t ins_pair_issues = 0;
  size_t random_ins_pair_issues = 0;
  size_t random_pairing_issues = 0;
  size_t sfull_issues = 0;

  for (Strategy strategy : kMethods) {
    PipelineResult result =
        RunSnowboardPipeline(bench::CanonicalOptions(strategy, kBudget, 4), seeds);

    std::string found;
    size_t issues = 0;
    for (const auto& [id, finding] : result.findings.first_findings()) {
      if (id == 0) {
        continue;
      }
      issues++;
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "#%d(%zu) ", id, finding.test_index);
      found += buffer;
    }
    if (strategy == Strategy::kSInsPair) {
      ins_pair_issues = issues;
    } else if (strategy == Strategy::kRandomSInsPair) {
      random_ins_pair_issues = issues;
    } else if (strategy == Strategy::kRandomPairing) {
      random_pairing_issues = issues;
    } else if (strategy == Strategy::kSFull) {
      sfull_issues = issues;
    }
    std::printf("%-19s %10zu %8zu %7zu  %s\n", StrategyName(strategy),
                result.cluster_count, result.tests_executed, issues,
                found.c_str());
  }

  std::printf("\nShape checks vs the paper's Table 3:\n");
  std::printf("  S-INS-PAIR (%zu) >= Random S-INS-PAIR (%zu): uncommon-first ordering "
              "helps ... %s\n",
              ins_pair_issues, random_ins_pair_issues,
              ins_pair_issues >= random_ins_pair_issues ? "HOLDS" : "VIOLATED");
  std::printf("  S-INS-PAIR (%zu) >  Random pairing (%zu): PMC guidance beats aimless "
              "pairing ... %s\n",
              ins_pair_issues, random_pairing_issues,
              ins_pair_issues > random_pairing_issues ? "HOLDS" : "VIOLATED");
  std::printf("  S-INS-PAIR (%zu) >  S-FULL (%zu): aggressive clustering beats the "
              "unfocused baseline ... %s\n",
              ins_pair_issues, sfull_issues,
              ins_pair_issues > sfull_issues ? "HOLDS" : "VIOLATED");
  bool ok = ins_pair_issues >= random_ins_pair_issues &&
            ins_pair_issues > random_pairing_issues && ins_pair_issues > sfull_issues;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace snowboard

int main() { return snowboard::Run(); }
