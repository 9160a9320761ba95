//===- driver/Driver.cpp - The kcc-style driver --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

using namespace cundef;

Driver::Driver(AnalysisRequest Req)
    : Req(std::move(Req)), Eng(engineConfigFor(this->Req)) {}

Driver::Compiled Driver::compile(const std::string &Source,
                                 const std::string &Name) {
  return Eng.compile(Req, Source, Name);
}

DriverOutcome Driver::runSource(const std::string &Source,
                                const std::string &Name) {
  return Eng.submit(Req, Source, Name).take();
}
