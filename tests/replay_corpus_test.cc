// Replay regression corpus: the checked-in tokens under tests/corpus/ are shippable
// reproducers for the findings the reference campaign surfaces. Three bars, held
// forever once a token is checked in:
//   1. Every corpus token still parses and replays to its exact recorded detector
//      fingerprint on a fresh VM.
//   2. Re-running the reference campaign reproduces the corpus tokens BYTE-identically,
//      at 1/2/4 workers. A token is part of the deterministic output surface, exactly
//      like the serialized result. (The two campaign tests keep the "AndEngines" names
//      they had when they also compared the retired barrier engine.)
//   3. The deliberately-divergent token (valid checksum, flipped fingerprint) parses but
//      fails fingerprint verification — the divergence path the CLI turns into exit 3.
//
// Regenerate after an intentional format or schedule change with:
//   SB_UPDATE_CORPUS=1 ./sb_tests --gtest_filter='ReplayCorpusTest.*'
// and commit the rewritten tests/corpus/*.token files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "src/kernel/fs/vfs.h"
#include "src/kernel/ipc/port.h"
#include "src/snowboard/pipeline.h"
#include "src/snowboard/replay.h"
#include "src/snowboard/serialize.h"
#include "src/util/fs.h"

namespace snowboard {
namespace {

std::string CorpusDir() { return SB_TEST_CORPUS_DIR; }

bool UpdateMode() {
  const char* env = std::getenv("SB_UPDATE_CORPUS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The reference campaign: identical to report_golden_test's BaseOptions, so the corpus
// reproduces the same findings the report golden exercises.
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

// Runs the reference campaign and returns issue id -> replay token text.
std::map<int, std::string> CampaignTokens(int num_workers) {
  PipelineResult result = RunSnowboardPipeline(BaseOptions(num_workers));
  std::map<int, std::string> tokens;
  for (const auto& [id, finding] : result.findings.first_findings()) {
    EXPECT_FALSE(finding.replay_token.empty())
        << "finding " << id << " shipped without a replay token";
    tokens[id] = finding.replay_token;
  }
  return tokens;
}

std::string TrimTrailingWhitespace(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r' ||
                           text.back() == ' ' || text.back() == '\t')) {
    text.pop_back();
  }
  return text;
}

// Reads the checked-in issue-<id>.token files (divergent.token excluded).
std::map<int, std::string> CheckedInTokens() {
  std::map<int, std::string> tokens;
  if (!std::filesystem::is_directory(CorpusDir())) {
    return tokens;
  }
  for (const auto& entry : std::filesystem::directory_iterator(CorpusDir())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("issue-", 0) != 0 || entry.path().extension() != ".token") {
      continue;
    }
    int id = std::atoi(name.substr(6).c_str());
    std::optional<std::string> contents = ReadFileContents(entry.path().string());
    if (contents.has_value()) {
      tokens[id] = TrimTrailingWhitespace(*contents);
    }
  }
  return tokens;
}

// Rewrites the corpus from the 1-worker reference campaign (SB_UPDATE_CORPUS=1).
void UpdateCorpus(const std::map<int, std::string>& tokens) {
  ASSERT_TRUE(EnsureDirectory(CorpusDir()));
  for (const auto& [id, token] : tokens) {
    std::string path = CorpusDir() + "/issue-" + std::to_string(id) + ".token";
    ASSERT_TRUE(WriteStringToFile(path, token + "\n")) << path;
  }
  // The divergent token: same trial, flipped expected fingerprint, valid checksum. It
  // must parse but fail verification — the cli smoke test drives exit code 3 with it.
  ASSERT_FALSE(tokens.empty());
  std::optional<ReplayToken> first = ParseReplayToken(tokens.begin()->second);
  ASSERT_TRUE(first.has_value());
  first->fingerprint ^= 1;
  ASSERT_TRUE(WriteStringToFile(CorpusDir() + "/divergent.token",
                                FormatReplayToken(*first) + "\n"));
}

// --- Detector-prey reference suite (#18-#22). ---
//
// The fuzzer's vocabulary is frozen at the original 24 syscalls, so the generated
// reference campaign can never reach the seeded deadlock/lost-wakeup/livelock prey. The
// corpus tokens for those issues come from this fixed handcrafted test set, seeded into
// the SAME campaign engine (RunSnowboardPipeline with CampaignSeeds: shared worker pool,
// journaling, token assembly) — which also makes the new detectors subject to the
// worker-count determinism bar above.

Program HandcraftedProgram(std::initializer_list<Call> calls) {
  Program p;
  p.calls = calls;
  return p;
}

Call HandcraftedCall(uint32_t nr, std::initializer_list<int64_t> args) {
  Call call;
  call.nr = nr;
  int i = 0;
  for (int64_t a : args) {
    call.args[i++] = Arg::Const(a);
  }
  return call;
}

std::vector<ConcurrentTest> DetectorPreyTests() {
  auto pair = [](Program writer, Program reader, int base_id) {
    ConcurrentTest test;
    test.writer = std::move(writer);
    test.reader = std::move(reader);
    test.write_test = base_id;
    test.read_test = base_id + 1;
    return test;
  };
  std::vector<ConcurrentTest> tests;
  // #18: blocking recv vs send (generation re-sampled after the empty check). The
  // receiver runs on vCPU 0 so a single preemption inside the seeded window lets the
  // sender's count++/wake land before the stale generation sample — one switch, not two.
  tests.push_back(pair(
      HandcraftedProgram({HandcraftedCall(kSysPortRecv, {0, kPortRecvWait})}),
      HandcraftedProgram({HandcraftedCall(kSysPortSend, {0})}), 100));
  // #19: mount vs umount lock-order inversion.
  tests.push_back(pair(HandcraftedProgram({HandcraftedCall(kSysMount, {}),
                                           HandcraftedCall(kSysMount, {}),
                                           HandcraftedCall(kSysMount, {})}),
                       HandcraftedProgram({HandcraftedCall(kSysUmount, {0}),
                                           HandcraftedCall(kSysUmount, {0}),
                                           HandcraftedCall(kSysUmount, {0})}),
                       102));
  // #20: racing umounts leak a superblock ref; the waiter spins forever.
  Program mount_umount_wait = HandcraftedProgram(
      {HandcraftedCall(kSysMount, {}), HandcraftedCall(kSysUmount, {kUmountWait})});
  tests.push_back(pair(mount_umount_wait, mount_umount_wait, 104));
  // #21: port pair transferred in opposite argument orders (AB/BA).
  tests.push_back(pair(HandcraftedProgram({HandcraftedCall(kSysPortTransfer, {0, 1}),
                                           HandcraftedCall(kSysPortTransfer, {0, 1})}),
                       HandcraftedProgram({HandcraftedCall(kSysPortTransfer, {1, 0}),
                                           HandcraftedCall(kSysPortTransfer, {1, 0})}),
                       106));
  // #22: blocking recv vs close (the shutdown wake lands in the seeded window).
  tests.push_back(pair(
      HandcraftedProgram({HandcraftedCall(kSysPortRecv, {0, kPortRecvWait})}),
      HandcraftedProgram({HandcraftedCall(kSysPortClose, {0})}), 108));
  return tests;
}

PipelineOptions DetectorOptions(int num_workers) {
  PipelineOptions options;
  options.seed = 7;
  options.strategy = Strategy::kRandomPairing;
  options.num_workers = num_workers;
  options.explorer.seed = 2021;
  options.explorer.num_trials = 256;
  // Livelocked trials spin until the budget trips; the detectors only need the tail
  // window, so a small budget keeps the suite fast without masking any finding.
  options.explorer.max_instructions = 60'000;
  return options;
}

// Runs the handcrafted suite as a seeded campaign; issue id -> token. The pairing scheduler
// never consults the PMC table, so an empty one is seeded and only exploration runs.
std::map<int, std::string> DetectorCampaignTokens(int num_workers) {
  CampaignSeeds seeds;
  seeds.pmcs.emplace();
  seeds.tests = DetectorPreyTests();
  PipelineResult result = RunSnowboardPipeline(DetectorOptions(num_workers), seeds);
  std::map<int, std::string> tokens;
  for (const auto& [id, finding] : result.findings.first_findings()) {
    EXPECT_GE(id, 18) << "stray non-detector finding: " << finding.evidence;
    EXPECT_FALSE(finding.replay_token.empty())
        << "finding " << id << " shipped without a replay token";
    tokens[id] = finding.replay_token;
  }
  return tokens;
}

TEST(ReplayCorpusTest, DetectorCampaignTokensMatchCorpusAcrossWorkersAndEngines) {
  std::map<int, std::string> base = DetectorCampaignTokens(/*num_workers=*/1);
  // Every seeded detector issue must be exposed and tokenized.
  std::set<int> ids;
  for (const auto& [id, token] : base) {
    ids.insert(id);
  }
  EXPECT_EQ(ids, (std::set<int>{18, 19, 20, 21, 22}));

  if (UpdateMode()) {
    ASSERT_TRUE(EnsureDirectory(CorpusDir()));
    for (const auto& [id, token] : base) {
      std::string path = CorpusDir() + "/issue-" + std::to_string(id) + ".token";
      ASSERT_TRUE(WriteStringToFile(path, token + "\n")) << path;
    }
  }

  std::map<int, std::string> corpus = CheckedInTokens();
  for (const auto& [id, token] : base) {
    EXPECT_EQ(corpus[id], token)
        << "checked-in token for issue " << id << " diverges from the reference suite; "
           "regenerate with SB_UPDATE_CORPUS=1 if intentional";
  }

  // Same determinism bar as the fuzzed campaign: byte-identical tokens at any worker
  // count.
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_EQ(DetectorCampaignTokens(workers), base);
  }
}

TEST(ReplayCorpusTest, CampaignTokensMatchCorpusAcrossWorkersAndEngines) {
  std::map<int, std::string> base = CampaignTokens(/*num_workers=*/1);
  ASSERT_FALSE(base.empty()) << "the reference campaign surfaced no findings";
  if (UpdateMode()) {
    UpdateCorpus(base);
  }

  // The corpus also holds the detector-prey tokens (#18-#22, from the handcrafted suite
  // above); the fuzzed reference campaign owns everything below that range.
  std::map<int, std::string> corpus = CheckedInTokens();
  std::erase_if(corpus, [](const auto& entry) { return entry.first >= 18; });
  EXPECT_EQ(corpus, base) << "checked-in corpus diverges from the reference campaign; "
                             "regenerate with SB_UPDATE_CORPUS=1 if intentional";

  // The token is part of the deterministic output surface: byte-identical at any worker
  // count.
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    EXPECT_EQ(CampaignTokens(workers), base);
  }
}

TEST(ReplayCorpusTest, CorpusTokensReplayToTheirFingerprint) {
  std::map<int, std::string> corpus = CheckedInTokens();
  ASSERT_FALSE(corpus.empty()) << "no tokens under " << CorpusDir()
                               << " (run with SB_UPDATE_CORPUS=1 to generate)";
  for (const auto& [id, text] : corpus) {
    SCOPED_TRACE(testing::Message() << "issue " << id);
    std::optional<ReplayToken> token = ParseReplayToken(text);
    ASSERT_TRUE(token.has_value()) << text;
    EXPECT_EQ(token->issue_id, id);

    // Replay on a fresh VM reproduces the recorded fingerprint exactly.
    KernelVm vm;
    ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
    EXPECT_TRUE(verdict.completed);
    EXPECT_TRUE(verdict.fingerprint_match)
        << "expected " << token->fingerprint << ", observed " << verdict.fingerprint;
  }
}

TEST(ReplayCorpusTest, DivergentTokenParsesButFailsVerification) {
  std::optional<std::string> text = ReadFileContents(CorpusDir() + "/divergent.token");
  ASSERT_TRUE(text.has_value()) << "missing divergent.token (run with SB_UPDATE_CORPUS=1)";
  std::optional<ReplayToken> token = ParseReplayToken(TrimTrailingWhitespace(*text));
  ASSERT_TRUE(token.has_value()) << "divergent.token must still be a well-formed token";
  KernelVm vm;
  ReplayVerdict verdict = ReplayTokenTrial(vm, *token);
  EXPECT_FALSE(verdict.fingerprint_match)
      << "the divergent token unexpectedly matched; was the corpus regenerated?";
}

}  // namespace
}  // namespace snowboard
