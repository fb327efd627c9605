// Output verification: every campaign the benchmark runs is checked from its report.json
// alone, the way a consumer of the report would check it.
//
// An operation is ok only when its report parses as a complete JSON document with
// "schema": "snowboard-report-v1", and every finding's replay token parses
// (ParseReplayToken) and re-executes to its recorded detector fingerprint
// (ReplayTokenTrial). Nothing is compared against checked-in issue ids, trial counts, or
// token files: site IDs (and so tokens and issue sets) differ between builds, and the
// check must hold on any of them.
#ifndef PERFBENCH_REPORT_CHECK_H_
#define PERFBENCH_REPORT_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace snowboard {
class KernelVm;
}

namespace perfbench {

struct ReportView {
  bool parsed = false;  // Valid JSON with the snowboard-report-v1 schema.
  std::string error;    // Why parsing failed.
  std::map<std::string, uint64_t> funnel;  // Funnel stage -> count.
  std::vector<std::string> tokens;  // One per finding row, i.e. per distinct issue (may be "").
};

ReportView ParseReport(const std::string& json);

struct ReplayTally {
  int replayed = 0;  // Tokens re-executed.
  int exact = 0;     // ...that completed with a matching fingerprint.
  int missing = 0;   // Finding rows without a token.
  std::vector<double> seconds;  // Per-token parse + replay wall time.
};

// Replays every token of `view` on `vm`. Spans ("replay") go to `trace` when non-null.
// Returns true when every finding carried a token and every token replayed exactly.
bool ReplayAll(snowboard::KernelVm& vm, const ReportView& view, ReplayTally* tally,
               SpanTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_CHECK_H_
