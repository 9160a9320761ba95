//===- tests/test_wire_fuzz.cpp - Seeded fuzzing of the wire decoder ----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Every daemon request and every remote result goes through
// JsonValue::parse and the serve/Protocol.h decoders, so no frame a
// peer can send may crash them. This suite mutates valid submit,
// finished and stats_result frames (bit flips, truncation, byte
// insertion, ten-thousand-deep nesting) and feeds every mutant through
// the parser and then parseRequest, parseOutcome, parseStats and
// parseFindings. Beyond not crashing, every request or outcome a
// decoder accepts must serialize and parse back to an equal value.
//
// The seed and iteration count are fixed, so a failure reproduces
// exactly; the run takes a couple of seconds (ctest -L fuzz, also under
// -DCUNDEF_ASAN=ON).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace cundef;

namespace {

constexpr uint32_t FuzzSeed = 0x5eed2026;
constexpr unsigned FuzzIterations = 170000;

AnalysisRequest sampleRequest() {
  MachineOptions M;
  M.StepLimit = (uint64_t(1) << 53) + 1;
  AnalysisRequest::Builder B;
  B.target(TargetConfig::ilp32())
      .machine(M)
      .style(RuleStyle::PrecedenceChain)
      .order(EvalOrderKind::RightToLeft)
      .seed(77)
      .searchRuns(32)
      .searchJobs(3)
      .staticAnalyze(StaticAnalysisMode::Only);
  return B.buildOrDie();
}

DriverOutcome sampleOutcome() {
  DriverOutcome O;
  O.CompileOk = true;
  O.CompileErrors = "warn: \"x\"\n";
  UbReport R;
  R.Kind = UbKind::DivisionByZero;
  R.Description = "Division by zero.";
  R.Function = "main";
  R.Loc = SourceLoc(1, 3, 29);
  O.DynamicUb.push_back(R);
  R.StaticFinding = true;
  R.Verdict = FindingVerdict::Must;
  R.Domain = "interval";
  O.StaticUb.push_back(R);
  R.Verdict = FindingVerdict::May;
  R.Domain = "nullness";
  O.StaticHints.push_back(R);
  O.Status = RunStatus::UbDetected;
  O.ExitCode = -3;
  O.Output = std::string("out\x01\xff\n", 6);
  O.OrdersExplored = 12;
  O.OrdersDeduped = 3;
  O.SearchTruncated = true;
  O.SearchDropped = 2;
  O.SearchSteals = 5;
  O.SearchEvictions = 1;
  O.SearchPeakFrontier = 9;
  O.FrontendMicros = 123.5;
  O.SearchMicros = 456.25;
  O.SearchWitness = {1, 0, 1};
  return O;
}

std::vector<std::string> seedFrames() {
  SchedulerStats P;
  P.Programs = 3;
  P.Jobs = 4;
  P.RunsExecuted = 100;
  P.RunsCommitted = 90;
  P.CommitLagPeak = 7;
  EngineMemoryStats M;
  M.ProgramSlots = 9;
  TranslationCacheStats T;
  T.Lookups = 8;
  ResultCacheStats R;
  R.Abandoned = 1;
  return {submitFrame(7, "a \"b\".c", "int main(void) {\n\treturn 0;\n}\n",
                      sampleRequest()),
          finishedFrame(7, sampleOutcome(), 812.125),
          statsResultFrame(8, P, M, T, R)};
}

/// Applies one random mutation: a bit flip, a truncation, or the
/// insertion of a byte (JSON punctuation half the time, so mutants get
/// past the first structural check and reach the decoders).
void mutate(std::string &Text, std::mt19937 &Rng) {
  static const char Punct[] = "{}[]\":,\\-+.eE0123456789tfnu ";
  auto Pick = [&](size_t N) {
    return static_cast<size_t>(Rng() % (N ? N : 1));
  };
  switch (Rng() % 3) {
  case 0:
    if (!Text.empty())
      Text[Pick(Text.size())] ^= static_cast<char>(1u << (Rng() % 8));
    break;
  case 1:
    Text.resize(Pick(Text.size() + 1));
    break;
  default: {
    char C = Rng() % 2 ? Punct[Pick(sizeof(Punct) - 1)]
                       : static_cast<char>(Rng() & 0xFF);
    Text.insert(Text.begin() + static_cast<long>(Pick(Text.size() + 1)), C);
  }
  }
}

struct Tally {
  unsigned Parsed = 0, Requests = 0, Outcomes = 0, Stats = 0, Findings = 0;
};

void checkRequest(const JsonValue &V, Tally &T) {
  AnalysisRequest First;
  std::string Err;
  if (!parseRequest(V, First, Err))
    return;
  ++T.Requests;
  const std::string Wire = serializeRequest(First);
  JsonValue Again;
  ASSERT_TRUE(JsonValue::parse(Wire, Again, Err)) << Err << "\n" << Wire;
  AnalysisRequest Second;
  ASSERT_TRUE(parseRequest(Again, Second, Err)) << Err << "\n" << Wire;
  // The serialization covers every field, so equal bytes are an equal
  // request.
  EXPECT_EQ(serializeRequest(Second), Wire);
}

void checkOutcome(const JsonValue &V, Tally &T) {
  DriverOutcome First;
  std::string Err;
  if (!parseOutcome(V, First, Err))
    return;
  ++T.Outcomes;
  const std::string Wire = serializeOutcome(First);
  JsonValue Again;
  ASSERT_TRUE(JsonValue::parse(Wire, Again, Err)) << Err << "\n" << Wire;
  DriverOutcome Second;
  ASSERT_TRUE(parseOutcome(Again, Second, Err)) << Err << "\n" << Wire;
  // Micros travel with three decimals; everything else is exact, which
  // equal serializations of the two values (micros zeroed) show.
  EXPECT_NEAR(Second.FrontendMicros, First.FrontendMicros,
              0.0005 + 1e-12 * std::fabs(First.FrontendMicros));
  EXPECT_NEAR(Second.SearchMicros, First.SearchMicros,
              0.0005 + 1e-12 * std::fabs(First.SearchMicros));
  First.FrontendMicros = First.SearchMicros = 0;
  Second.FrontendMicros = Second.SearchMicros = 0;
  EXPECT_EQ(serializeOutcome(Second), serializeOutcome(First));
}

void checkStats(const JsonValue &V, Tally &T) {
  SchedulerStats P;
  EngineMemoryStats M;
  TranslationCacheStats Tr;
  ResultCacheStats R;
  std::string Err;
  if (parseStats(V, P, M, Tr, R, Err))
    ++T.Stats;
}

void checkFindings(const JsonValue &V, Tally &T) {
  std::vector<UbReport> First;
  std::string Err;
  if (!parseFindings(V, First, Err))
    return;
  ++T.Findings;
  const std::string Wire = serializeFindings(First);
  JsonValue Again;
  ASSERT_TRUE(JsonValue::parse(Wire, Again, Err)) << Err;
  std::vector<UbReport> Second;
  ASSERT_TRUE(parseFindings(Again, Second, Err)) << Err;
  EXPECT_EQ(serializeFindings(Second), Wire);
}

/// One mutant through the parser and every decoder, at the frame root
/// and at the member each decoder normally receives.
void exercise(const std::string &Text, Tally &T) {
  JsonValue V;
  std::string Err;
  if (!JsonValue::parse(Text, V, Err))
    return;
  ++T.Parsed;
  const JsonValue *Outcome = V.get("outcome");
  checkRequest(V.get("request") ? *V.get("request") : V, T);
  checkOutcome(Outcome ? *Outcome : V, T);
  checkStats(V.get("stats") ? *V.get("stats") : V, T);
  checkFindings(Outcome && Outcome->get("dynamic_ub")
                    ? *Outcome->get("dynamic_ub")
                    : V,
                T);
}

} // namespace

TEST(WireFuzz, SeedsAreAcceptedAndRoundTrip) {
  Tally T;
  for (const std::string &Frame : seedFrames())
    exercise(Frame, T);
  EXPECT_EQ(T.Parsed, 3u);
  EXPECT_GE(T.Requests, 1u);
  EXPECT_EQ(T.Outcomes, 1u);
  EXPECT_EQ(T.Stats, 1u);
  EXPECT_EQ(T.Findings, 1u);
}

TEST(WireFuzz, DeepNestingIsRejectedWithoutRecursingAway) {
  const std::vector<std::string> Seeds = seedFrames();
  std::string Arrays = std::string(10000, '[') + std::string(10000, ']');
  std::string Objects;
  for (int I = 0; I < 10000; ++I)
    Objects += "{\"outcome\":";
  Objects += "1" + std::string(10000, '}');
  Tally T;
  exercise(Arrays, T);
  exercise(Objects, T);
  // The same nesting as the first member of each valid frame.
  for (const std::string &Frame : Seeds)
    exercise("{\"deep\":" + Arrays + "," + Frame.substr(1), T);
  EXPECT_EQ(T.Parsed, 0u);
}

TEST(WireFuzz, MutatedFramesNeverCrashAndAcceptedValuesRoundTrip) {
  const std::vector<std::string> Seeds = seedFrames();
  std::mt19937 Rng(FuzzSeed);
  Tally T;
  for (unsigned I = 0; I < FuzzIterations && !HasFailure(); ++I) {
    std::string Mutant = Seeds[Rng() % Seeds.size()];
    for (unsigned N = 1 + Rng() % 4; N > 0; --N)
      mutate(Mutant, Rng);
    exercise(Mutant, T);
  }
  // The run must reach the decoders, not just bounce off the parser.
  EXPECT_GT(T.Parsed, FuzzIterations / 20);
  EXPECT_GT(T.Requests, 0u);
  EXPECT_GT(T.Outcomes, 0u);
  EXPECT_GT(T.Stats, 0u);
  EXPECT_GT(T.Findings, 0u);
  std::printf("wire fuzz: %u mutants, %u parsed, accepted %u requests, "
              "%u outcomes, %u stats, %u finding lists\n",
              FuzzIterations, T.Parsed, T.Requests, T.Outcomes, T.Stats,
              T.Findings);
}
