//===- tests/test_catalog_coverage.cpp - The coverage contract --------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The catalog coverage harness (suites/CatalogCoverage.h) turns the
// 221-row catalog into a tested contract: one triggering program per
// expressible row, graded covered / wrong-code / missed /
// inexpressible. These tests pin down the generator's invariants, the
// grading, the determinism that makes the committed docs column safe,
// the rendered surfaces, and the engine's memory-reclaim contract
// under the coverage-sized (200+-program) batch.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "suites/CatalogCoverage.h"
#include "suites/DesktopSuite.h"
#include "ub/Catalog.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace cundef;

namespace {

/// One report per process: the quick sweep costs ~0.5 s, and every
/// test that only *reads* the verdicts can share it.
const CoverageReport &quickReport() {
  static const CoverageReport R = runCatalogCoverage(coverageRequest(true));
  return R;
}

/// The committed floor: tests/suites/coverage_baseline.txt, found
/// relative to the compiled-in desktop-suite directory (its sibling).
unsigned baselineCovered() {
  std::string Path =
      std::string(desktopSuiteDir()) + "/../coverage_baseline.txt";
  std::ifstream In(Path);
  unsigned Floor = 0;
  In >> Floor;
  EXPECT_TRUE(In.good() || In.eof()) << "cannot read " << Path;
  EXPECT_GT(Floor, 0u) << Path << " must hold the covered-count floor";
  return Floor;
}

} // namespace

//===----------------------------------------------------------------------===//
// Generator invariants.
//===----------------------------------------------------------------------===//

TEST(CatalogCoverage, OneCasePerCatalogRow) {
  const std::vector<CoverageCase> &Cases = catalogCoverageCases();
  CatalogStats Stats = catalogStats();
  ASSERT_EQ(Cases.size(), Stats.Total);
  ASSERT_EQ(Stats.Total, 221u);
  for (size_t I = 0; I < Cases.size(); ++I) {
    const CoverageCase &Case = Cases[I];
    EXPECT_EQ(Case.Id, I + 1) << "cases must be ordered by id";
    ASSERT_NE(catalogEntry(Case.Id), nullptr);
    for (uint16_t Code : Case.ExpectedCodes) {
      EXPECT_GE(Code, 1u) << "row " << Case.Id;
      EXPECT_LE(Code, Stats.Total) << "row " << Case.Id;
    }
    if (!Case.expressible()) {
      // An inexpressible row must say why; the docs column prints it.
      EXPECT_STRNE(Case.Note, "") << "row " << Case.Id;
      EXPECT_TRUE(Case.ExpectedCodes.empty()) << "row " << Case.Id;
    }
  }
}

TEST(CatalogCoverage, EveryRaisedKindHasATriggeringProgram) {
  // The generator convention (docs/ARCHITECTURE.md): a catalog row that
  // mirrors a UbKind our evaluator actually raises must carry a
  // triggering program expecting its own code. Kinds the evaluator
  // cannot yet raise are the explicit exception list; shrinking it is
  // progress, growing it is a regression.
  // The flow-sensitive static layer raised 30/36/49 and the zero-size
  // allocation fix raised 38; only the genuinely untriggering kinds
  // remain.
  const std::set<uint16_t> NeverRaised = {31, 39};
  const std::vector<CoverageCase> &Cases = catalogCoverageCases();
  for (uint16_t Id = 1; Id <= 51; ++Id) {
    const CoverageCase &Case = Cases[Id - 1];
    if (NeverRaised.count(Id))
      continue;
    EXPECT_TRUE(Case.expressible()) << "kind " << Id;
    ASSERT_FALSE(Case.ExpectedCodes.empty()) << "kind " << Id;
    EXPECT_EQ(Case.ExpectedCodes.front(), Id) << "kind " << Id;
  }
}

//===----------------------------------------------------------------------===//
// Grading.
//===----------------------------------------------------------------------===//

TEST(CatalogCoverage, ReportPartitionsTheCatalog) {
  const CoverageReport &R = quickReport();
  ASSERT_EQ(R.Entries.size(), 221u);
  EXPECT_EQ(R.total(), 221u);
  unsigned Covered = 0, Wrong = 0, Missed = 0, Inexpr = 0;
  unsigned Static = 0, Dynamic = 0, Both = 0;
  for (const EntryCoverage &E : R.Entries) {
    const CoverageCase &Case = catalogCoverageCases()[E.Id - 1];
    switch (E.Verdict) {
    case CoverageVerdict::Covered: {
      ++Covered;
      // A covered row's reported code must be one it answers to.
      bool Listed = false;
      for (uint16_t Code : Case.ExpectedCodes)
        Listed |= Code == E.ReportedCode;
      EXPECT_TRUE(Listed) << "row " << E.Id << " reported "
                          << E.ReportedCode;
      // ...and carry its layer attribution.
      EXPECT_NE(E.Source, CoverageSource::None) << "row " << E.Id;
      Static += E.Source == CoverageSource::Static;
      Dynamic += E.Source == CoverageSource::Dynamic;
      Both += E.Source == CoverageSource::Both;
      break;
    }
    case CoverageVerdict::WrongCode:
      ++Wrong;
      EXPECT_NE(E.ReportedCode, 0u) << "row " << E.Id;
      EXPECT_EQ(E.Source, CoverageSource::None) << "row " << E.Id;
      break;
    case CoverageVerdict::Missed:
      ++Missed;
      EXPECT_EQ(E.ReportedCode, 0u) << "row " << E.Id;
      EXPECT_TRUE(Case.expressible()) << "row " << E.Id;
      EXPECT_EQ(E.Source, CoverageSource::None) << "row " << E.Id;
      break;
    case CoverageVerdict::Inexpressible:
      ++Inexpr;
      EXPECT_FALSE(Case.expressible()) << "row " << E.Id;
      EXPECT_EQ(E.Source, CoverageSource::None) << "row " << E.Id;
      break;
    }
  }
  EXPECT_EQ(R.Covered, Covered);
  EXPECT_EQ(R.WrongCode, Wrong);
  EXPECT_EQ(R.Missed, Missed);
  EXPECT_EQ(R.Inexpressible, Inexpr);
  EXPECT_EQ(R.CoveredStatic, Static);
  EXPECT_EQ(R.CoveredDynamic, Dynamic);
  EXPECT_EQ(R.CoveredBoth, Both);
  EXPECT_EQ(R.CoveredStatic + R.CoveredDynamic + R.CoveredBoth, R.Covered);
}

TEST(CatalogCoverage, CoveredCountMeetsCommittedBaseline) {
  // The same floor cmake/CheckCoverageBaseline.cmake gates through the
  // CLI; detector work may move it up, never down.
  EXPECT_GE(quickReport().Covered, baselineCovered());
}

TEST(CatalogCoverage, NoWrongCodeRows) {
  // Every row the evaluator flags must answer to its own catalog code;
  // a wrong-code row means a detector reports a neighbor's code.
  EXPECT_EQ(quickReport().WrongCode, 0u);
}

TEST(CatalogCoverage, VerdictsDeterministicAcrossPoolWidths) {
  // The Coverage column of docs/UB_CATALOG.md is committed output kept
  // fresh by the catalog_docs_fresh ctest, so verdicts (and reported
  // codes) must not depend on the pool width that produced them.
  AnalysisRequest One =
      AnalysisRequest::Builder().searchRuns(4).searchJobs(1).buildOrDie();
  CoverageReport RW = runCatalogCoverage(One);
  const CoverageReport &RS = quickReport(); // auto workers
  ASSERT_EQ(RW.Entries.size(), RS.Entries.size());
  for (size_t I = 0; I < RW.Entries.size(); ++I) {
    EXPECT_EQ(RW.Entries[I].Verdict, RS.Entries[I].Verdict)
        << "row " << RW.Entries[I].Id;
    EXPECT_EQ(RW.Entries[I].ReportedCode, RS.Entries[I].ReportedCode)
        << "row " << RW.Entries[I].Id;
  }
}

//===----------------------------------------------------------------------===//
// Rendered surfaces.
//===----------------------------------------------------------------------===//

TEST(CatalogCoverage, ReportEndsWithStableSummaryLine) {
  const CoverageReport &R = quickReport();
  std::string Text = renderCoverageReport(R);
  std::ostringstream Want;
  Want << "coverage: covered=" << R.Covered << " wrong-code=" << R.WrongCode
       << " missed=" << R.Missed << " inexpressible=" << R.Inexpressible
       << " total=" << R.total() << " static=" << R.CoveredStatic
       << " dynamic=" << R.CoveredDynamic << " both=" << R.CoveredBoth
       << "\n";
  ASSERT_GE(Text.size(), Want.str().size());
  EXPECT_EQ(Text.substr(Text.size() - Want.str().size()), Want.str())
      << "CheckCoverageBaseline.cmake parses this exact final line";
}

TEST(CatalogCoverage, MarkdownColumnCountsMatchReport) {
  const CoverageReport &R = quickReport();
  CatalogCoverageColumn Col = coverageColumn(R);
  ASSERT_EQ(Col.Cells.size(), R.Entries.size());
  EXPECT_EQ(Col.Covered, R.Covered);
  EXPECT_EQ(Col.WrongCode, R.WrongCode);
  EXPECT_EQ(Col.Missed, R.Missed);
  EXPECT_EQ(Col.Inexpressible, R.Inexpressible);
  std::string Doc = renderCatalogMarkdown(&Col);
  EXPECT_NE(Doc.find("| Coverage |"), std::string::npos);
}

TEST(CatalogCoverage, JsonDocumentCarriesTheCounts) {
  const CoverageReport &R = quickReport();
  std::string Json = renderCoverageJson(R, "quick", R.WallMs);
  EXPECT_NE(Json.find("\"schema\": \"cundef-kcc-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"mode\": \"quick\""), std::string::npos);
  std::ostringstream Covered;
  Covered << "\"covered\": " << R.Covered;
  EXPECT_NE(Json.find(Covered.str()), std::string::npos);
  std::ostringstream Attr;
  Attr << "\"covered_static\": " << R.CoveredStatic
       << ",\n    \"covered_dynamic\": " << R.CoveredDynamic
       << ",\n    \"covered_both\": " << R.CoveredBoth;
  EXPECT_NE(Json.find(Attr.str()), std::string::npos);
  EXPECT_NE(Json.find("\"source\": \"static\""), std::string::npos);
  EXPECT_NE(Json.find("\"source\": \"dynamic\""), std::string::npos);
  EXPECT_NE(Json.find("\"total\": 221"), std::string::npos);
  EXPECT_NE(Json.find("\"exit_code\": 0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The engine reclaim contract under a coverage-sized batch.
//===----------------------------------------------------------------------===//

TEST(CatalogCoverage, EngineReclaimsAfterLargeBatch) {
  // A long-lived service must hold memory proportional to its largest
  // batch, not its history: after drain() on the idle engine, every
  // per-job resource — pending handles, pinned artifacts, per-program
  // search arenas, snapshot-cache entries — is released.
  // The batch is every expressible coverage case plus both halves of
  // the desktop suite: comfortably past 200 programs, the scale the
  // coverage harness actually runs.
  std::vector<BatchInput> Programs;
  char Name[32];
  for (const CoverageCase &Case : catalogCoverageCases()) {
    if (!Case.expressible())
      continue;
    std::snprintf(Name, sizeof(Name), "cov_%03u.c", Case.Id);
    Programs.push_back({Case.Program, Name});
  }
  DesktopSuite Desktop = loadDesktopSuite();
  ASSERT_TRUE(Desktop.ok()) << Desktop.Error;
  for (const DesktopCase &Case : Desktop.Cases) {
    Programs.push_back({Case.Test.Bad, Case.Test.Name + "_bad.c"});
    Programs.push_back({Case.Test.Good, Case.Test.Name + "_good.c"});
  }
  ASSERT_GE(Programs.size(), 200u);

  AnalysisEngine Eng;
  std::vector<JobHandle> Jobs =
      Eng.submitBatch(coverageRequest(true), Programs);
  unsigned Flagged = 0;
  for (JobHandle &Job : Jobs)
    Flagged += Job.wait().anyUb();
  EXPECT_GT(Flagged, 100u) << "the batch should be mostly triggering "
                              "programs";

  // All outcomes are final. Artifacts were released during the batch,
  // each by its program's last run: only the cancelling runs still in
  // flight, at most one per worker, can pin one now. The search states
  // are only released by drain(); there must be something to reclaim
  // or this test gates nothing.
  EngineMemoryStats Before = Eng.memoryStats();
  EXPECT_EQ(Before.PendingJobs, 0u);
  EXPECT_LE(Before.GraveyardArtifacts, Eng.workers());
  EXPECT_GT(Before.RetainedPrograms, 100u);

  Eng.drain();
  EngineMemoryStats After = Eng.memoryStats();
  EXPECT_EQ(After.PendingJobs, 0u);
  EXPECT_EQ(After.GraveyardArtifacts, 0u);
  EXPECT_EQ(After.RetainedPrograms, 0u);
  EXPECT_EQ(After.PendingSnapshots, 0u);
  // Ids stay monotonic, but reclaimed slots leave the index.
  EXPECT_GT(Before.ProgramSlots, 100u);
  EXPECT_EQ(After.ProgramSlots, 0u);

  // The engine stays serviceable after reclaim.
  JobHandle Again = Eng.submit(coverageRequest(true),
                               "int main(void) { return 1 / 0; }\n",
                               "again.c");
  EXPECT_TRUE(Again.wait().anyUb());
  Eng.shutdown();
}
