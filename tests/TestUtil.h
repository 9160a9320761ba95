//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test binaries: run a source string through the
/// kcc driver and assert on the verdict, or a batch through an engine.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TESTS_TESTUTIL_H
#define CUNDEF_TESTS_TESTUTIL_H

#include "driver/Driver.h"

#include <gtest/gtest.h>

#include <vector>

namespace cundef {

inline DriverOutcome runKcc(const std::string &Source,
                            unsigned SearchRuns = 1) {
  Driver Drv(AnalysisRequest::Builder().searchRuns(SearchRuns).buildOrDie());
  return Drv.runSource(Source, "test.c");
}

/// Expects the program to be undefined with the given catalog code as
/// the first finding.
inline void expectUb(const std::string &Source, UbKind Kind,
                     unsigned SearchRuns = 1) {
  DriverOutcome O = runKcc(Source, SearchRuns);
  ASSERT_TRUE(O.CompileOk) << O.CompileErrors << "\nsource:\n" << Source;
  ASSERT_TRUE(O.anyUb()) << "expected code " << ubCode(Kind)
                         << " but program was clean\nsource:\n"
                         << Source;
  const UbReport &First =
      O.StaticUb.empty() ? O.DynamicUb.front() : O.StaticUb.front();
  EXPECT_EQ(ubCode(First.Kind), ubCode(Kind))
      << "got: " << First.Description << "\nsource:\n" << Source;
}

/// Expects the program to compile, run to completion, and be clean.
inline void expectClean(const std::string &Source, int ExitCode = 0,
                        unsigned SearchRuns = 1) {
  DriverOutcome O = runKcc(Source, SearchRuns);
  ASSERT_TRUE(O.CompileOk) << O.CompileErrors << "\nsource:\n" << Source;
  EXPECT_FALSE(O.anyUb()) << O.renderReport() << "\nsource:\n" << Source;
  EXPECT_EQ(O.Status, RunStatus::Completed);
  EXPECT_EQ(O.ExitCode, ExitCode) << "source:\n" << Source;
}

/// Runs a defined program and returns its output.
inline std::string outputOf(const std::string &Source) {
  DriverOutcome O = runKcc(Source);
  EXPECT_TRUE(O.CompileOk) << O.CompileErrors;
  EXPECT_FALSE(O.anyUb()) << O.renderReport();
  return O.Output;
}

/// Submits \p Inputs to \p Eng as one batch and blocks on every job;
/// the outcomes come back in input order.
inline std::vector<DriverOutcome>
analyzeBatch(AnalysisEngine &Eng, const AnalysisRequest &Req,
             const std::vector<BatchInput> &Inputs) {
  std::vector<DriverOutcome> Outcomes;
  for (JobHandle &H : Eng.submitBatch(Req, Inputs))
    Outcomes.push_back(H.take());
  return Outcomes;
}

} // namespace cundef

#endif // CUNDEF_TESTS_TESTUTIL_H
