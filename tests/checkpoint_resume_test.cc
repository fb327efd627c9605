// Crash-point sweep for the checkpoint/resume layer — the headline invariant of the
// crash-safe campaign work: for a fixed seed, killing the pipeline at EVERY fault point
// and resuming yields a PipelineResult (stats, PMC table digest, findings) byte-identical
// to the uninterrupted run, at 1, 2, and 4 workers — and the resumed run re-executes zero
// already-journaled tests (verified through PipelineCounters).
//
// Mechanics: a first pass with a no-crash FaultInjector counts the campaign's fault points
// (checkpoint commits, journal appends, explorer trials, worker claim loops); the sweep
// then replays the campaign once per ordinal with crash_at = k, resumes each crashed
// directory, and compares SerializePipelineResult bytes against the golden run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "src/snowboard/checkpoint.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/serialize.h"
#include "src/util/counters.h"
#include "src/util/fault.h"

namespace snowboard {
namespace {

// Small but real campaign: a few corpus tests, a handful of concurrent tests, a few trials
// each — enough to cross every stage boundary and journal several outcomes while keeping
// the full sweep (one crashed run + one resume per fault point) in test-lane time.
PipelineOptions TinyOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.corpus.seed = 42;
  options.corpus.max_iterations = 10;
  options.corpus.target_size = 8;
  options.strategy = Strategy::kSInsPair;
  options.max_concurrent_tests = 5;
  options.explorer.num_trials = 3;
  options.num_workers = num_workers;
  return options;
}

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = std::string(::testing::TempDir()) + "sb_resume_" +
                    std::to_string(::getpid()) + "_" + tag + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// Counts the distinct journaled test outcomes recorded in `dir` for `options`' strategy.
void CountJournaled(const std::string& dir, const PipelineOptions& options,
                    size_t total_tests, size_t* count_out) {
  CheckpointStore store(dir);
  std::vector<bool> seen(total_tests, false);
  *count_out = 0;
  std::string journal = std::string("execute.") + StrategyToken(options.strategy);
  for (const std::string& record : store.ReadJournal(journal)) {
    std::optional<OutcomeRecord> decoded = DecodeOutcomeRecord(record);
    ASSERT_TRUE(decoded.has_value()) << "committed journal records must decode";
    ASSERT_LT(decoded->test_index, total_tests);
    if (!seen[decoded->test_index]) {
      seen[decoded->test_index] = true;
      (*count_out)++;
    }
  }
}

TEST(CheckpointResumeTest, CrashAtEveryFaultPointResumesByteIdentical) {
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);

    // Golden: one uninterrupted checkpointed run, and a plain run to prove checkpointing
    // itself does not perturb the deterministic outputs.
    PipelineOptions plain = TinyOptions(workers);
    std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

    PipelineOptions golden_options = TinyOptions(workers);
    golden_options.checkpoint_dir = FreshDir("golden");
    PipelineResult golden = RunSnowboardPipeline(golden_options);
    ASSERT_GT(golden.tests_executed, 0u);
    ASSERT_EQ(SerializePipelineResult(golden), golden_text)
        << "checkpointing must not change results";
    const size_t total_tests = golden.tests_generated;

    // Count the campaign's fault points with a crash-free injector.
    FaultInjector::Plan no_crash;
    FaultInjector point_counter(no_crash);
    PipelineOptions count_options = TinyOptions(workers);
    count_options.checkpoint_dir = FreshDir("count");
    count_options.fault = &point_counter;
    PipelineResult counted = RunSnowboardPipeline(count_options);
    ASSERT_FALSE(point_counter.crashed());
    ASSERT_EQ(SerializePipelineResult(counted), golden_text)
        << "an armed-but-silent injector must not change results";
    const uint64_t total_points = point_counter.points_seen();
    ASSERT_GT(total_points, 20u) << "the campaign should cross many fault points";

    for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
      SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
      std::string dir = FreshDir("sweep");

      FaultInjector::Plan plan;
      plan.crash_at = static_cast<int64_t>(crash_at);
      FaultInjector fault(plan);
      PipelineOptions crash_options = TinyOptions(workers);
      crash_options.checkpoint_dir = dir;
      crash_options.fault = &fault;
      RunSnowboardPipeline(crash_options);
      ASSERT_TRUE(fault.crashed()) << "ordinal within points_seen must fire";

      // What survived the crash on disk is all the resumed run may reuse.
      size_t journaled = 0;
      CountJournaled(dir, crash_options, total_tests, &journaled);

      ResetPipelineCounters();
      PipelineOptions resume_options = TinyOptions(workers);
      resume_options.checkpoint_dir = dir;
      resume_options.resume = true;
      PipelineResult resumed = RunSnowboardPipeline(resume_options);

      // The headline invariant: byte-identical serialized result.
      EXPECT_EQ(SerializePipelineResult(resumed), golden_text);

      // Zero re-execution of journaled tests: every journaled outcome replays, and only
      // the remainder runs live.
      PipelineCounters& counters = GlobalPipelineCounters();
      EXPECT_EQ(counters.tests_resumed.load(), journaled);
      EXPECT_EQ(resumed.tests_resumed, journaled);
      EXPECT_EQ(counters.concurrent_tests_run.load(), total_tests - journaled);
      EXPECT_EQ(resumed.tests_executed, total_tests);

      std::filesystem::remove_all(dir);
    }

    std::filesystem::remove_all(golden_options.checkpoint_dir);
    std::filesystem::remove_all(count_options.checkpoint_dir);
  }
}

// The same sweep with schedule-equivalence pruning on: the v4 outcome records carry
// fingerprints, adaptive sites, and saturation flags, journal replay feeds the
// cluster-priority tracker without re-execution, and the engine's deferral path
// adds no fault points that could desynchronize a resume. One worker count keeps the
// doubled sweep inside the resume lane's budget; the prune-off sweep above already covers
// the worker-count axis.
TEST(CheckpointResumeTest, CrashSweepWithPruningResumesByteIdentical) {
  auto prune_options = [](int num_workers) {
    PipelineOptions options = TinyOptions(num_workers);
    options.explorer.prune.enabled = true;
    return options;
  };

  PipelineOptions plain = prune_options(2);
  std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

  PipelineOptions golden_options = prune_options(2);
  golden_options.checkpoint_dir = FreshDir("prune_golden");
  PipelineResult golden = RunSnowboardPipeline(golden_options);
  ASSERT_GT(golden.tests_executed, 0u);
  ASSERT_EQ(SerializePipelineResult(golden), golden_text)
      << "checkpointing must not change pruned results";
  const size_t total_tests = golden.tests_generated;

  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  PipelineOptions count_options = prune_options(2);
  count_options.checkpoint_dir = FreshDir("prune_count");
  count_options.fault = &point_counter;
  PipelineResult counted = RunSnowboardPipeline(count_options);
  ASSERT_FALSE(point_counter.crashed());
  ASSERT_EQ(SerializePipelineResult(counted), golden_text)
      << "an armed-but-silent injector must not change pruned results";
  const uint64_t total_points = point_counter.points_seen();
  ASSERT_GT(total_points, 20u);

  for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
    SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
    std::string dir = FreshDir("prune_sweep");

    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = prune_options(2);
    crash_options.checkpoint_dir = dir;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());

    size_t journaled = 0;
    CountJournaled(dir, crash_options, total_tests, &journaled);

    ResetPipelineCounters();
    PipelineOptions resume_options = prune_options(2);
    resume_options.checkpoint_dir = dir;
    resume_options.resume = true;
    PipelineResult resumed = RunSnowboardPipeline(resume_options);

    EXPECT_EQ(SerializePipelineResult(resumed), golden_text);

    PipelineCounters& counters = GlobalPipelineCounters();
    EXPECT_EQ(counters.tests_resumed.load(), journaled);
    EXPECT_EQ(resumed.tests_resumed, journaled);
    EXPECT_EQ(counters.concurrent_tests_run.load(), total_tests - journaled);
    EXPECT_EQ(resumed.tests_executed, total_tests);

    std::filesystem::remove_all(dir);
  }

  std::filesystem::remove_all(golden_options.checkpoint_dir);
  std::filesystem::remove_all(count_options.checkpoint_dir);
}

TEST(CheckpointResumeTest, ResumeOfCompletedCampaignShortCircuits) {
  PipelineOptions options = TinyOptions(2);
  options.checkpoint_dir = FreshDir("complete");
  PipelineResult golden = RunSnowboardPipeline(options);
  ASSERT_GT(golden.tests_executed, 0u);

  ResetPipelineCounters();
  PipelineOptions resume_options = options;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(resumed), SerializePipelineResult(golden));
  EXPECT_EQ(resumed.tests_resumed, golden.tests_executed);
  EXPECT_EQ(GlobalPipelineCounters().concurrent_tests_run.load(), 0u)
      << "a completed campaign must not re-execute anything";
  EXPECT_EQ(GlobalPipelineCounters().vm_profile_runs.load(), 0u)
      << "a completed campaign must not re-profile anything";
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(CheckpointResumeTest, MismatchedOptionsFingerprintResetsDirectory) {
  PipelineOptions options = TinyOptions(1);
  options.checkpoint_dir = FreshDir("fingerprint");
  PipelineResult first = RunSnowboardPipeline(options);
  ASSERT_GT(first.tests_executed, 0u);

  // Same directory, different campaign seed: the stale artifacts must not leak in.
  PipelineOptions other = TinyOptions(1);
  other.checkpoint_dir = options.checkpoint_dir;
  other.resume = true;  // Even with resume requested, the fingerprint guard wins.
  other.seed = 8;
  ResetPipelineCounters();
  PipelineResult second = RunSnowboardPipeline(other);
  EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), 0u);
  EXPECT_EQ(second.tests_resumed, 0u);

  // And the directory now resumes as the NEW campaign.
  PipelineOptions again = other;
  PipelineResult resumed = RunSnowboardPipeline(again);
  EXPECT_EQ(SerializePipelineResult(resumed), SerializePipelineResult(second));
  std::filesystem::remove_all(options.checkpoint_dir);
}

// The non-clustering strategies' display names contain spaces ("Random S-INS-PAIR"), which
// checkpoint entry and journal names may not; their entries are keyed by StrategyToken. A
// random-pairing campaign must journal its tests like any other and resume from the journal
// with zero re-execution, then short-circuit on its committed result.
TEST(CheckpointResumeTest, RandomPairingCampaignJournalsAndResumes) {
  auto options_for = [](const std::string& dir) {
    PipelineOptions options = TinyOptions(2);
    options.strategy = Strategy::kRandomSInsPair;
    options.checkpoint_dir = dir;
    return options;
  };
  const std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(options_for("")));
  const std::string journal = std::string("execute.") + StrategyToken(Strategy::kRandomSInsPair);
  const std::string result_entry =
      std::string("result.") + StrategyToken(Strategy::kRandomSInsPair);

  // Complete a checkpointed run: every executed test is journaled and the result committed.
  const std::string complete_dir = FreshDir("random_complete");
  PipelineResult complete = RunSnowboardPipeline(options_for(complete_dir));
  ASSERT_GT(complete.tests_executed, 0u);
  ASSERT_EQ(SerializePipelineResult(complete), golden_text);
  size_t journaled = 0;
  CountJournaled(complete_dir, options_for(complete_dir), complete.tests_generated, &journaled);
  EXPECT_EQ(journaled, complete.tests_executed) << "every executed test must be journaled";
  EXPECT_TRUE(CheckpointStore(complete_dir).Has(result_entry));

  // Crash late enough that outcomes are journaled but no result is committed, so the
  // resume has to come from the journal.
  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  const std::string count_dir = FreshDir("random_count");
  PipelineOptions count_options = options_for(count_dir);
  count_options.fault = &point_counter;
  RunSnowboardPipeline(count_options);
  std::string dir;
  journaled = 0;
  for (uint64_t crash_at = point_counter.points_seen(); crash_at-- > 0;) {
    std::string candidate = FreshDir("random_crash");
    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = options_for(candidate);
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());
    CheckpointStore store(candidate);
    if (!store.Has(result_entry) && !store.ReadJournal(journal).empty()) {
      dir = candidate;
      CountJournaled(candidate, crash_options, complete.tests_generated, &journaled);
      break;
    }
    std::filesystem::remove_all(candidate);
  }
  ASSERT_FALSE(dir.empty()) << "no crash point left journaled outcomes without a result";
  ASSERT_GT(journaled, 0u);

  ResetPipelineCounters();
  PipelineOptions resume_options = options_for(dir);
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(resumed), golden_text);
  EXPECT_EQ(resumed.tests_resumed, journaled);
  EXPECT_EQ(GlobalPipelineCounters().concurrent_tests_run.load(),
            complete.tests_generated - journaled)
      << "journaled tests must not re-execute";

  // And the now-committed result short-circuits a second resume.
  ResetPipelineCounters();
  PipelineResult again = RunSnowboardPipeline(resume_options);
  EXPECT_EQ(SerializePipelineResult(again), golden_text);
  EXPECT_EQ(GlobalPipelineCounters().concurrent_tests_run.load(), 0u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(count_dir);
  std::filesystem::remove_all(complete_dir);
}

// A journal record whose test index is outside the campaign's test list (e.g. a journal
// left by a differently-sized test set) must be dropped and counted — never replayed as
// progress, and never allowed to perturb the resumed result.
TEST(CheckpointResumeTest, OutOfRangeJournalRecordsDroppedAndCounted) {
  PipelineOptions plain = TinyOptions(2);
  const std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));
  const std::string journal = std::string("execute.") + StrategyToken(plain.strategy);
  const std::string result_entry = std::string("result.") + StrategyToken(plain.strategy);

  // Count the campaign's fault points, then crash late enough that the directory has
  // journaled outcomes but no committed result (so a resume actually replays the journal).
  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  PipelineOptions count_options = TinyOptions(2);
  count_options.checkpoint_dir = FreshDir("dropcount");
  count_options.fault = &point_counter;
  PipelineResult counted = RunSnowboardPipeline(count_options);
  const size_t total_tests = counted.tests_generated;
  const uint64_t total_points = point_counter.points_seen();
  ASSERT_GT(total_points, 20u);

  std::string dir;
  size_t journaled = 0;
  for (uint64_t crash_at = total_points; crash_at-- > 0;) {
    std::string candidate = FreshDir("drop");
    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = TinyOptions(2);
    crash_options.checkpoint_dir = candidate;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());
    CheckpointStore store(candidate);
    if (!store.Has(result_entry) && !store.ReadJournal(journal).empty()) {
      dir = candidate;
      CountJournaled(candidate, crash_options, total_tests, &journaled);
      break;
    }
    std::filesystem::remove_all(candidate);
  }
  ASSERT_FALSE(dir.empty()) << "no crash point left journaled outcomes without a result";
  ASSERT_GT(journaled, 0u);

  // Poison the journal with a record far past any test index this campaign can generate.
  {
    CheckpointStore store(dir);
    OutcomeRecord bogus;
    bogus.test_index = 1'000'000;
    ASSERT_TRUE(store.AppendJournal(journal, EncodeOutcomeRecord(bogus)));
  }

  ResetPipelineCounters();
  PipelineOptions resume_options = TinyOptions(2);
  resume_options.checkpoint_dir = dir;
  resume_options.resume = true;
  PipelineResult resumed = RunSnowboardPipeline(resume_options);

  EXPECT_EQ(SerializePipelineResult(resumed), golden_text)
      << "a dropped record must not perturb the resumed result";
  EXPECT_GE(GlobalPipelineCounters().journal_records_dropped.load(), 1u)
      << "the out-of-range record must be counted as dropped";
  EXPECT_EQ(resumed.tests_resumed, journaled)
      << "only in-range journaled outcomes may replay";

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(count_options.checkpoint_dir);
}

// The group-commit sweep: with a batch threshold small enough to fire mid-stage
// (journal_flush_records=2), crash at EVERY fault point and resume. Batching must change
// only durability granularity — whole batches become durable or are lost together — never
// the resumed bytes, and a resumed run may replay exactly what a committed batch put on
// disk. This is the CrashAtEveryFaultPoint invariant restated under threshold flushes.
TEST(CheckpointResumeTest, JournalBatchingCrashSweepResumesByteIdentical) {
  constexpr int kFlushRecords = 2;
  auto batched = [](int workers) {
    PipelineOptions options = TinyOptions(workers);
    options.journal_flush_records = kFlushRecords;
    return options;
  };

  PipelineOptions plain = TinyOptions(2);
  const std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(plain));

  // Fault-point totals depend on the flush threshold (one journal.append per BATCH), so
  // count under the same batching configuration the sweep crashes.
  FaultInjector::Plan no_crash;
  FaultInjector point_counter(no_crash);
  PipelineOptions count_options = batched(2);
  count_options.checkpoint_dir = FreshDir("batchcount");
  count_options.fault = &point_counter;
  PipelineResult counted = RunSnowboardPipeline(count_options);
  ASSERT_FALSE(point_counter.crashed());
  ASSERT_EQ(SerializePipelineResult(counted), golden_text)
      << "journal batching must not change deterministic results";
  const size_t total_tests = counted.tests_generated;
  const uint64_t total_points = point_counter.points_seen();
  ASSERT_GT(total_points, 20u);

  for (uint64_t crash_at = 0; crash_at < total_points; crash_at++) {
    SCOPED_TRACE(testing::Message() << "crash_at=" << crash_at);
    std::string dir = FreshDir("batchsweep");

    FaultInjector::Plan plan;
    plan.crash_at = static_cast<int64_t>(crash_at);
    FaultInjector fault(plan);
    PipelineOptions crash_options = batched(2);
    crash_options.checkpoint_dir = dir;
    crash_options.fault = &fault;
    RunSnowboardPipeline(crash_options);
    ASSERT_TRUE(fault.crashed());

    size_t journaled = 0;
    CountJournaled(dir, crash_options, total_tests, &journaled);

    ResetPipelineCounters();
    PipelineOptions resume_options = batched(2);
    resume_options.checkpoint_dir = dir;
    resume_options.resume = true;
    PipelineResult resumed = RunSnowboardPipeline(resume_options);

    EXPECT_EQ(SerializePipelineResult(resumed), golden_text);
    EXPECT_EQ(GlobalPipelineCounters().tests_resumed.load(), journaled);
    EXPECT_EQ(resumed.tests_resumed, journaled)
        << "a resume may replay exactly the batches that committed";

    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(count_options.checkpoint_dir);
}

// Flush accounting: every journal record reaches disk through exactly one group commit,
// so the batch counters must reconcile with the on-disk journal — records flushed equals
// lines readable, flush count is bounded by batches of at most journal_flush_records, and
// the timed fsync path registered real nanoseconds.
TEST(CheckpointResumeTest, JournalBatchFlushAccountingReconciles) {
  PipelineOptions options = TinyOptions(2);
  options.checkpoint_dir = FreshDir("batchacct");
  options.journal_flush_records = 2;
  ResetPipelineCounters();
  PipelineResult result = RunSnowboardPipeline(options);
  ASSERT_GT(result.tests_executed, 0u);

  size_t on_disk = 0;
  {
    CheckpointStore store(options.checkpoint_dir);
    const std::string journal = std::string("execute.") + StrategyToken(options.strategy);
    on_disk = store.ReadJournal(journal).size();
  }
  ASSERT_GT(on_disk, 0u);

  PipelineCounters& counters = GlobalPipelineCounters();
  EXPECT_EQ(counters.journal_batch_records.load(), on_disk)
      << "every record must be accounted to exactly one flush";
  const uint64_t flushes = counters.journal_batch_flushes.load();
  EXPECT_GE(flushes, (on_disk + 1) / 2) << "a batch holds at most journal_flush_records";
  EXPECT_LE(flushes, on_disk) << "a flush carries at least one record";
  EXPECT_GT(counters.journal_flush_nanos.load(), 0u);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST(CheckpointResumeTest, InjectedHangsRetryWithoutChangingResults) {
  PipelineOptions base_options = TinyOptions(1);
  std::string golden_text = SerializePipelineResult(RunSnowboardPipeline(base_options));

  PipelineOptions retry_options = TinyOptions(1);
  retry_options.explorer.max_trial_retries = 2;
  FaultInjector::Plan plan;
  plan.seed = 3;
  plan.hang_chance = 4;  // Roughly every fourth trial attempt reports as hung.
  FaultInjector fault(plan);
  retry_options.fault = &fault;
  ResetPipelineCounters();
  PipelineResult result = RunSnowboardPipeline(retry_options);

  EXPECT_GT(fault.hangs_injected(), 0u) << "the plan should have injected hangs";
  EXPECT_GT(result.trials_retried, 0u);
  EXPECT_EQ(GlobalPipelineCounters().trials_retried.load(), result.trials_retried);
  EXPECT_EQ(SerializePipelineResult(result), golden_text)
      << "hung-trial retries must be invisible in deterministic outputs";
}

}  // namespace
}  // namespace snowboard
