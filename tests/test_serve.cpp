//===- tests/test_serve.cpp - kcc-serve daemon and protocol tests -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The analysis daemon (serve/Server.h) multiplexes concurrent network
// clients onto one warm AnalysisEngine, and four properties carry the
// subsystem:
//
//  * Fidelity: outcomes that cross the wire are the outcomes a local
//    engine produces — N concurrent clients submitting a
//    duplicate-heavy corpus, or 1, 4 and 16 clients submitting one
//    program at a time, get results identical to a local run, for
//    every deterministic field (verdicts, reports, output, exit codes,
//    witnesses, order counts).
//  * Backpressure is structured: past the per-client or engine-wide
//    in-flight bound, submits are rejected with an `overloaded` error
//    frame — never queued without bound, never a hang.
//  * Hostile or unlucky clients cost only their own connection:
//    half-written frames, garbage, oversized announcements, and
//    mid-job disconnects leave the daemon serving everyone else.
//  * Drain is graceful: requestStop() finishes in-flight jobs, flushes
//    their results, and run() returns 0 — and a long-lived daemon's
//    reclaimable memory returns to zero between bursts (the
//    service-mode reclaim blind spot, fixed by the loop's idle-point
//    reclamation).
//
// Everything runs in-process (the daemon on its own thread, clients on
// the test thread) over Unix-domain sockets under /tmp; under
// -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Strings.h"

#include "../bench/BenchUtil.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cundef;

namespace {

//===----------------------------------------------------------------------===//
// Fixture: an in-process daemon on its own thread.
//===----------------------------------------------------------------------===//

struct DaemonFixture {
  std::unique_ptr<ServeDaemon> Daemon;
  std::thread Loop;
  std::string Path;
  int ExitCode = -1;

  ~DaemonFixture() {
    if (Loop.joinable())
      stop();
  }

  void start(ServeConfig Cfg = ServeConfig()) {
    static unsigned Counter = 0;
    Path = strFormat("/tmp/cundef-serve-%d-%u.sock", ::getpid(), Counter++);
    Cfg.UnixPath = Path;
    Daemon = std::make_unique<ServeDaemon>(std::move(Cfg));
    std::string Err;
    ASSERT_TRUE(Daemon->listen(Err)) << Err;
    Loop = std::thread([this] { ExitCode = Daemon->run(); });
  }

  /// Graceful stop; the drain contract says run() returns 0.
  void stop() {
    Daemon->requestStop();
    Loop.join();
    EXPECT_EQ(ExitCode, 0);
    ::unlink(Path.c_str());
  }

  RemoteEndpoint endpoint() const {
    RemoteEndpoint Ep;
    Ep.IsUnix = true;
    Ep.UnixPath = Path;
    return Ep;
  }

  /// Spin until \p Pred or ~10s (1-core CI is slow under TSan).
  template <typename Fn> bool waitFor(Fn Pred) {
    for (int I = 0; I < 2000; ++I) {
      if (Pred())
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Pred();
  }
};

/// A raw (protocol-bypassing) connection for the hostile-client tests.
struct RawConn {
  int Fd = -1;
  std::string ReadBuf;

  ~RawConn() { close(); }

  bool open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strcpy(Addr.sun_path, Path.c_str());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      close();
      return false;
    }
    return true;
  }

  void close() {
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  }

  bool sendRaw(const std::string &Bytes) {
    size_t Sent = 0;
    while (Sent < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Sent += static_cast<size_t>(N);
    }
    return true;
  }

  bool readFrame(std::string &Payload, std::string &Err,
                 int TimeoutMs = 10000) {
    return readFrameBlocking(Fd, ReadBuf, Payload, Err, TimeoutMs);
  }

  /// Consumes the server hello every connection starts with.
  bool eatHello() {
    std::string Payload, Err;
    return readFrame(Payload, Err) &&
           Payload.find("\"type\":\"hello\"") != std::string::npos;
  }
};

AnalysisRequest defaultRequest(unsigned Runs = 16) {
  AnalysisRequest::Builder B;
  B.searchRuns(Runs);
  auto R = B.build();
  EXPECT_TRUE(R.ok());
  return R.Request;
}

/// The duplicate-heavy corpus: order-dependent UB, output + exit code
/// passthrough, a compile error, clean commuting trees — each shape
/// twice, so the daemon's translation cache sees duplicates within one
/// client and across concurrent ones.
std::vector<BatchInput> corpus() {
  std::vector<BatchInput> Base = {
      {"int d = 5;\n"
       "int setDenom(int x) { return d = x; }\n"
       "int main(void) { return (10 / d) + setDenom(0); }\n",
       "paper.c"},
      {"#include <stdio.h>\n"
       "int main(void) { printf(\"out-%d\\n\", 42); return 7; }\n",
       "hello.c"},
      {"int main(void) { return 0 }\n", "broken.c"},
      {"static int g(int x) { return x + 1; }\n"
       "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
       "  return t > 0 ? 0 : 1; }\n",
       "commute.c"},
  };
  std::vector<BatchInput> Out = Base;
  for (const BatchInput &In : Base)
    Out.push_back({In.Source, "dup-" + In.Name});
  return Out;
}

/// Every deterministic field must survive the wire; volatile ones
/// (timings, cache hits, steal counts) legitimately differ.
void expectSameOutcome(const DriverOutcome &A, const DriverOutcome &B,
                       const std::string &Tag) {
  EXPECT_EQ(A.CompileOk, B.CompileOk) << Tag;
  EXPECT_EQ(A.CompileErrors, B.CompileErrors) << Tag;
  EXPECT_EQ(A.anyUb(), B.anyUb()) << Tag;
  EXPECT_EQ(A.renderReport(), B.renderReport()) << Tag;
  EXPECT_EQ(A.StaticUb.size(), B.StaticUb.size()) << Tag;
  EXPECT_EQ(A.StaticHints.size(), B.StaticHints.size()) << Tag;
  EXPECT_EQ(A.DynamicUb.size(), B.DynamicUb.size()) << Tag;
  EXPECT_EQ(A.Status, B.Status) << Tag;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.OrdersExplored, B.OrdersExplored) << Tag;
  EXPECT_EQ(A.OrdersDeduped, B.OrdersDeduped) << Tag;
  EXPECT_EQ(A.SearchTruncated, B.SearchTruncated) << Tag;
  EXPECT_EQ(A.SearchWitness, B.SearchWitness) << Tag;
  EXPECT_EQ(A.StaticOnly, B.StaticOnly) << Tag;
}

//===----------------------------------------------------------------------===//
// Endpoint parsing (the kcc --remote surface).
//===----------------------------------------------------------------------===//

TEST(ServeEndpoint, ParsesTcpAndUnixForms) {
  RemoteEndpoint Ep;
  std::string Err;
  ASSERT_TRUE(parseRemoteEndpoint("localhost:7777", Ep, Err)) << Err;
  EXPECT_FALSE(Ep.IsUnix);
  EXPECT_EQ(Ep.Host, "localhost");
  EXPECT_EQ(Ep.Port, 7777u);

  ASSERT_TRUE(parseRemoteEndpoint("127.0.0.1:1", Ep, Err)) << Err;
  EXPECT_EQ(Ep.Port, 1u);

  ASSERT_TRUE(parseRemoteEndpoint("unix:/tmp/x.sock", Ep, Err)) << Err;
  EXPECT_TRUE(Ep.IsUnix);
  EXPECT_EQ(Ep.UnixPath, "/tmp/x.sock");
}

TEST(ServeEndpoint, RejectsMalformedTargets) {
  RemoteEndpoint Ep;
  std::string Err;
  // Each of these is an exit-2 usage error in kcc, never coerced.
  for (const char *Bad :
       {"unix:", "nocolon", ":7777", "host:", "host:0", "host:abc",
        "host:70000", "host:-1", "host:1O"}) {
    EXPECT_FALSE(parseRemoteEndpoint(Bad, Ep, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Codec roundtrips: the wire must be lossless for deterministic state.
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, OutcomeRoundtripsLosslessly) {
  DriverOutcome O;
  O.CompileOk = true;
  O.CompileErrors = "warn: line\n";
  UbReport R;
  R.Kind = static_cast<UbKind>(33);
  R.Description = "unsequenced modification of 'x' \"quoted\"";
  R.Function = "main";
  R.Loc = SourceLoc(2, 4, 7);
  R.StaticFinding = false;
  R.Verdict = FindingVerdict::Must;
  R.Domain = "nullness";
  O.DynamicUb.push_back(R);
  R.StaticFinding = true;
  R.Verdict = FindingVerdict::May;
  O.StaticHints.push_back(R);
  O.Status = RunStatus::UbDetected;
  O.ExitCode = 42;
  O.Output = std::string("bin\x01\xffout\n", 9);
  O.OrdersExplored = 12;
  O.OrdersDeduped = 3;
  O.SearchTruncated = true;
  O.SearchDropped = 2;
  O.SearchSteals = 5;
  O.SearchEvictions = 1;
  O.SearchPeakFrontier = 9;
  O.TranslationCacheHit = true;
  O.FrontendMicros = 123.5;
  O.SearchMicros = 456.25;
  O.SearchWitness = {1, 0, 1, 1};

  std::string Json = serializeOutcome(O);
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Json, V, Err)) << Err;
  DriverOutcome Back;
  ASSERT_TRUE(parseOutcome(V, Back, Err)) << Err;

  expectSameOutcome(O, Back, "roundtrip");
  // The volatile fields round-trip too (the daemon's honest values).
  EXPECT_EQ(Back.SearchSteals, O.SearchSteals);
  EXPECT_EQ(Back.SearchEvictions, O.SearchEvictions);
  EXPECT_EQ(Back.SearchPeakFrontier, O.SearchPeakFrontier);
  EXPECT_EQ(Back.TranslationCacheHit, O.TranslationCacheHit);
  EXPECT_DOUBLE_EQ(Back.FrontendMicros, O.FrontendMicros);
  EXPECT_DOUBLE_EQ(Back.SearchMicros, O.SearchMicros);
  ASSERT_EQ(Back.DynamicUb.size(), 1u);
  EXPECT_EQ(Back.DynamicUb[0].Kind, O.DynamicUb[0].Kind);
  EXPECT_EQ(Back.DynamicUb[0].Description, O.DynamicUb[0].Description);
  EXPECT_EQ(Back.DynamicUb[0].Loc.File, 2u);
  EXPECT_EQ(Back.DynamicUb[0].Loc.Line, 4u);
  EXPECT_EQ(Back.DynamicUb[0].Loc.Col, 7u);
  EXPECT_EQ(Back.DynamicUb[0].Verdict, FindingVerdict::Must);
  // Domain strings intern back to the static literals (never owned).
  EXPECT_STREQ(Back.DynamicUb[0].Domain, "nullness");
  ASSERT_EQ(Back.StaticHints.size(), 1u);
  EXPECT_EQ(Back.StaticHints[0].Verdict, FindingVerdict::May);
}

TEST(ServeProtocol, RequestRoundtripsAndRevalidates) {
  AnalysisRequest::Builder B;
  B.target(TargetConfig::ilp32())
      .style(RuleStyle::PrecedenceChain)
      .order(EvalOrderKind::RightToLeft)
      .seed(77)
      .searchRuns(32)
      .searchJobs(3)
      .dedup(false)
      .snapshots(false)
      .staticAnalyze(StaticAnalysisMode::On);
  auto Built = B.build();
  ASSERT_TRUE(Built.ok());

  std::string Json = serializeRequest(Built.Request);
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Json, V, Err)) << Err;
  AnalysisRequest Back;
  ASSERT_TRUE(parseRequest(V, Back, Err)) << Err;

  EXPECT_EQ(Back.target().IntSize, Built.Request.target().IntSize);
  EXPECT_EQ(Back.target().PointerSize, Built.Request.target().PointerSize);
  EXPECT_EQ(Back.machine().Style, RuleStyle::PrecedenceChain);
  EXPECT_EQ(Back.machine().Order, EvalOrderKind::RightToLeft);
  EXPECT_EQ(Back.machine().Seed, 77u);
  EXPECT_EQ(Back.searchRuns(), 32u);
  EXPECT_EQ(Back.searchJobs(), 3u);
  EXPECT_FALSE(Back.searchDedup());
  EXPECT_FALSE(Back.searchSnapshots());

  // Parsing re-validates through the Builder: a daemon cannot be
  // talked into a configuration local kcc would reject.
  JsonValue Hostile;
  ASSERT_TRUE(JsonValue::parse("{\"search_runs\":0}", Hostile, Err)) << Err;
  AnalysisRequest Rejected;
  EXPECT_FALSE(parseRequest(Hostile, Rejected, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(ServeProtocol, WireIntegerAccessorsNeverCastOutOfRange) {
  // 1e30 does not fit uint64_t: the accessor answers the fallback
  // instead of an undefined float-to-integer conversion.
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse("{\"n\":1e30}", V, Err)) << Err;
  EXPECT_EQ(V.getU64("n", 5), 5u);
  int64_t Signed = -5;
  EXPECT_FALSE(V.get("n")->toInt(Signed));
  EXPECT_EQ(Signed, -5);
}

TEST(ServeProtocol, StepLimitAboveTwoToTheFiftyThreeIsExact) {
  // Through a double, 2^53+1 would arrive as 2^53: the daemon would run
  // (and cache) a different machine configuration than the local run.
  MachineOptions M;
  M.StepLimit = (uint64_t(1) << 53) + 1;
  AnalysisRequest::Builder B;
  B.machine(M);
  auto Built = B.build();
  ASSERT_TRUE(Built.ok());
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(serializeRequest(Built.Request), V, Err))
      << Err;
  AnalysisRequest Back;
  ASSERT_TRUE(parseRequest(V, Back, Err)) << Err;
  EXPECT_EQ(Back.machine().StepLimit, (uint64_t(1) << 53) + 1);
}

TEST(ServeProtocol, RequestIntegersThatDoNotFitAreRejected) {
  // 4294967297 would truncate to 1 through a cast to unsigned.
  const std::pair<const char *, const char *> Cases[] = {
      {"{\"search_runs\":4294967297}", "'search_runs'"},
      {"{\"search_jobs\":2.5}", "'search_jobs'"},
      {"{\"machine\":{\"step_limit\":1e30}}", "'step_limit'"},
      {"{\"machine\":{\"seed\":-1}}", "'seed'"},
      {"{\"target\":{\"int_size\":18446744073709551616}}", "'int_size'"}};
  for (const auto &[Bad, Key] : Cases) {
    JsonValue V;
    std::string Err;
    ASSERT_TRUE(JsonValue::parse(Bad, V, Err)) << Err;
    AnalysisRequest Out;
    EXPECT_FALSE(parseRequest(V, Out, Err)) << Bad;
    EXPECT_NE(Err.find(Key), std::string::npos) << Bad << ": " << Err;
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
  }
}

TEST(ServeProtocol, StatsRoundtrip) {
  SchedulerStats P;
  P.Programs = 3;
  P.Jobs = 4;
  P.Steals = 11;
  P.RunsExecuted = 100;
  P.RunsCommitted = 90;
  P.DedupHits = 7;
  P.SnapshotCaptures = 6;
  P.SnapshotTakes = 5;
  EngineMemoryStats M;
  M.PendingJobs = 1;
  M.ProgramSlots = 9;
  TranslationCacheStats T;
  T.Lookups = 8;
  T.Hits = 6;
  T.Misses = 2;
  ResultCacheStats R;
  R.Lookups = 12;
  R.Hits = 4;
  R.Misses = 8;
  R.InflightJoins = 3;

  std::string Json = serializeStats(P, M, T, R);
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Json, V, Err)) << Err;
  // The pool object shares kcc --json's field list, derived ratio too.
  EXPECT_NE(Json.find("\"speculative_waste\":0.1111"), std::string::npos)
      << Json;
  SchedulerStats P2;
  EngineMemoryStats M2;
  TranslationCacheStats T2;
  ResultCacheStats R2;
  ASSERT_TRUE(parseStats(V, P2, M2, T2, R2, Err)) << Err;
  EXPECT_EQ(P2.Programs, 3u);
  EXPECT_EQ(P2.Jobs, 4u);
  EXPECT_EQ(P2.Steals, 11u);
  EXPECT_EQ(P2.RunsExecuted, 100u);
  EXPECT_EQ(P2.RunsCommitted, 90u);
  EXPECT_EQ(P2.DedupHits, 7u);
  EXPECT_EQ(P2.SnapshotCaptures, 6u);
  EXPECT_EQ(P2.SnapshotTakes, 5u);
  EXPECT_EQ(M2.PendingJobs, 1u);
  EXPECT_EQ(M2.ProgramSlots, 9u);
  EXPECT_EQ(T2.Lookups, 8u);
  EXPECT_EQ(T2.Hits, 6u);
  EXPECT_EQ(T2.Misses, 2u);
  EXPECT_EQ(R2.Lookups, 12u);
  EXPECT_EQ(R2.Hits, 4u);
  EXPECT_EQ(R2.Misses, 8u);
  EXPECT_EQ(R2.InflightJoins, 3u);
}

TEST(ServeProtocol, FramingSplitsAndCoalesces) {
  // One buffer, three frames appended back to back: extraction must
  // yield each in order, and a partial tail must wait for more bytes.
  std::string Buffer;
  appendFrame(Buffer, "{\"a\":1}");
  appendFrame(Buffer, "{\"b\":2}");
  std::string Tail;
  appendFrame(Tail, "{\"c\":3}");
  Buffer += Tail.substr(0, 5); // header + 1 byte of the third frame

  std::string Payload;
  ASSERT_EQ(extractFrame(Buffer, Payload), 1);
  EXPECT_EQ(Payload, "{\"a\":1}");
  ASSERT_EQ(extractFrame(Buffer, Payload), 1);
  EXPECT_EQ(Payload, "{\"b\":2}");
  EXPECT_EQ(extractFrame(Buffer, Payload), 0); // partial: need more
  Buffer += Tail.substr(5);
  ASSERT_EQ(extractFrame(Buffer, Payload), 1);
  EXPECT_EQ(Payload, "{\"c\":3}");
  EXPECT_TRUE(Buffer.empty());

  // An announced length beyond the cap is a protocol error, detected
  // from the 4 header bytes alone.
  std::string Huge("\xFF\xFF\xFF\xFF", 4);
  EXPECT_EQ(extractFrame(Huge, Payload), -1);
}

//===----------------------------------------------------------------------===//
// Fidelity: concurrent clients vs a local engine.
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, ConcurrentClientsMatchLocalEngine) {
  const AnalysisRequest Req = defaultRequest();
  const std::vector<BatchInput> Inputs = corpus();

  // The local baseline: one engine, same request, same corpus.
  std::vector<DriverOutcome> Local;
  {
    AnalysisEngine Eng(engineConfigFor(Req));
    Local = analyzeBatch(Eng, Req, Inputs);
  }

  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  constexpr unsigned NumClients = 4;
  std::vector<std::vector<DriverOutcome>> Results(NumClients);
  std::vector<std::string> Errors(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < NumClients; ++C) {
    Clients.emplace_back([&, C] {
      RemoteClient Client;
      std::string Err;
      if (!Client.connect(D.endpoint(), Err)) {
        Errors[C] = Err;
        return;
      }
      std::vector<double> Micros;
      if (!Client.runBatch(Req, Inputs, Results[C], Micros, Err))
        Errors[C] = Err;
    });
  }
  for (std::thread &T : Clients)
    T.join();

  for (unsigned C = 0; C < NumClients; ++C) {
    ASSERT_TRUE(Errors[C].empty()) << "client " << C << ": " << Errors[C];
    ASSERT_EQ(Results[C].size(), Inputs.size());
    for (size_t I = 0; I < Inputs.size(); ++I)
      expectSameOutcome(Local[I], Results[C][I],
                        strFormat("client %u, %s", C,
                                  Inputs[I].Name.c_str()));
  }

  ServeCounters Counters = D.Daemon->counters();
  EXPECT_EQ(Counters.Accepted, NumClients);
  EXPECT_EQ(Counters.Submitted, NumClients * Inputs.size());
  EXPECT_EQ(Counters.Completed, NumClients * Inputs.size());
  EXPECT_EQ(Counters.Rejected, 0u);
  D.stop();
}

TEST(ServeDaemonTest, OneProgramSubmitsMatchLocalEngine) {
  // The interactive shape: 1, then 4, then 16 concurrent clients on one
  // daemon, each sending six one-program submits and waiting for every
  // verdict, client C's J-th submit picking program (C + J) % 4.
  // Every remote outcome must equal the local engine's, and the daemon
  // must still drain to exit 0 afterwards (DaemonFixture::stop).
  const AnalysisRequest Req = defaultRequest(32);
  const std::vector<BatchInput> Programs = {
      corpus()[0], corpus()[1],
      {cundef_bench::deepTreeProgram(5, 64, 11), "deep.c"},
      {"int main(void) { return 0; }\n", "clean.c"}};
  std::vector<DriverOutcome> Local;
  {
    AnalysisEngine Eng(engineConfigFor(Req));
    Local = analyzeBatch(Eng, Req, Programs);
  }

  ServeConfig Cfg;
  Cfg.MaxClients = 32;
  Cfg.MaxInflightPerClient = 32;
  DaemonFixture D;
  D.start(std::move(Cfg));
  if (HasFatalFailure())
    return;

  constexpr unsigned SubmitsPerClient = 6;
  for (unsigned NumClients : {1u, 4u, 16u}) {
    std::vector<std::vector<DriverOutcome>> Results(NumClients);
    std::vector<std::string> Errors(NumClients);
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < NumClients; ++C) {
      Clients.emplace_back([&, C] {
        RemoteClient Client;
        if (!Client.connect(D.endpoint(), Errors[C]))
          return;
        for (unsigned J = 0; J < SubmitsPerClient; ++J) {
          std::vector<DriverOutcome> Out;
          std::vector<double> Micros;
          if (!Client.runBatch(Req, {Programs[(C + J) % Programs.size()]},
                               Out, Micros, Errors[C]))
            return;
          Results[C].push_back(std::move(Out.at(0)));
        }
      });
    }
    for (std::thread &T : Clients)
      T.join();

    for (unsigned C = 0; C < NumClients; ++C) {
      ASSERT_TRUE(Errors[C].empty()) << "client " << C << ": " << Errors[C];
      ASSERT_EQ(Results[C].size(), SubmitsPerClient);
      for (unsigned J = 0; J < SubmitsPerClient; ++J) {
        const size_t Pick = (C + J) % Programs.size();
        expectSameOutcome(Local[Pick], Results[C][J],
                          strFormat("%u clients, client %u, %s", NumClients,
                                    C, Programs[Pick].Name.c_str()));
      }
    }
  }
  D.stop();
}

//===----------------------------------------------------------------------===//
// Backpressure: structured rejection, never a hang.
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, OverloadedSubmitsRejectedStructurally) {
  ServeConfig Cfg;
  Cfg.MaxInflightPerClient = 1;
  Cfg.Engine.Workers = 1;
  DaemonFixture D;
  D.start(std::move(Cfg));
  if (HasFatalFailure())
    return;

  // Job 1 is slow (deep tree, generous budget, one worker); submits
  // 2..5 arrive while it is in flight and the per-client bound is 1,
  // so all four are rejected deterministically.
  const AnalysisRequest Slow = defaultRequest(1024);
  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;
  ASSERT_TRUE(Client.send(submitFrame(1, "slow.c",
                                      cundef_bench::deepTreeProgram(12, 128),
                                      Slow),
                          Err))
      << Err;
  for (uint64_t Id = 2; Id <= 5; ++Id)
    ASSERT_TRUE(Client.send(
        submitFrame(Id, "quick.c", "int main(void){return 0;}", Slow), Err))
        << Err;

  unsigned Overloaded = 0, Finished = 0;
  while (Finished == 0 || Overloaded < 4) {
    RemoteMessage Msg;
    ASSERT_TRUE(Client.receive(Msg, Err, /*TimeoutMs=*/60000)) << Err;
    if (Msg.Type == "error") {
      EXPECT_EQ(Msg.Code, serveerr::Overloaded);
      EXPECT_GE(Msg.Id, 2u);
      ++Overloaded;
    } else if (Msg.Type == "finished") {
      EXPECT_EQ(Msg.Id, 1u);
      ++Finished;
    }
  }
  EXPECT_EQ(Overloaded, 4u);
  EXPECT_EQ(Finished, 1u);
  EXPECT_GE(D.Daemon->counters().Rejected, 4u);

  // The connection survived the rejections: the next submit runs.
  std::vector<DriverOutcome> Outcomes;
  std::vector<double> Micros;
  ASSERT_TRUE(Client.runBatch(defaultRequest(),
                              {{"int main(void){return 5;}", "after.c"}},
                              Outcomes, Micros, Err))
      << Err;
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_EQ(Outcomes[0].ExitCode, 5);
  D.stop();
}

TEST(ServeDaemonTest, QueueDepthBoundsAcrossClients) {
  ServeConfig Cfg;
  Cfg.MaxQueueDepth = 1;
  Cfg.Engine.Workers = 1;
  DaemonFixture D;
  D.start(std::move(Cfg));
  if (HasFatalFailure())
    return;

  const AnalysisRequest Slow = defaultRequest(1024);
  RemoteClient A, B;
  std::string Err;
  ASSERT_TRUE(A.connect(D.endpoint(), Err)) << Err;
  ASSERT_TRUE(B.connect(D.endpoint(), Err)) << Err;
  ASSERT_TRUE(A.send(submitFrame(1, "slow.c",
                                 cundef_bench::deepTreeProgram(12, 128), Slow),
                     Err))
      << Err;
  // A's job must be admitted before B's arrives for the rejection to
  // be deterministic; the Submitted counter observes admission.
  ASSERT_TRUE(D.waitFor([&] { return D.Daemon->counters().Submitted >= 1; }));

  ASSERT_TRUE(
      B.send(submitFrame(1, "b.c", "int main(void){return 0;}", Slow), Err))
      << Err;
  RemoteMessage Msg;
  ASSERT_TRUE(B.receive(Msg, Err, /*TimeoutMs=*/60000)) << Err;
  EXPECT_EQ(Msg.Type, "error");
  EXPECT_EQ(Msg.Code, serveerr::Overloaded);

  ASSERT_TRUE(A.receive(Msg, Err, /*TimeoutMs=*/120000)) << Err;
  while (Msg.Type != "finished")
    ASSERT_TRUE(A.receive(Msg, Err, /*TimeoutMs=*/120000)) << Err;
  EXPECT_EQ(Msg.Id, 1u);
  D.stop();
}

//===----------------------------------------------------------------------===//
// Hostile clients cost only their own connection.
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, HalfWrittenFrameDoesNotWedgeTheDaemon) {
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RawConn Raw;
  ASSERT_TRUE(Raw.open(D.Path));
  ASSERT_TRUE(Raw.eatHello());
  // A frame header promising 100 bytes, followed by 10 and silence.
  std::string Partial("\x00\x00\x00\x64", 4);
  Partial += "{\"type\":\"";
  ASSERT_TRUE(Raw.sendRaw(Partial));

  // The daemon must keep serving other clients while that frame hangs.
  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;
  std::vector<DriverOutcome> Outcomes;
  std::vector<double> Micros;
  ASSERT_TRUE(Client.runBatch(defaultRequest(),
                              {{"int main(void){return 3;}", "ok.c"}},
                              Outcomes, Micros, Err))
      << Err;
  EXPECT_EQ(Outcomes[0].ExitCode, 3);

  Raw.close(); // the half-writer vanishes mid-frame
  D.stop();
}

TEST(ServeDaemonTest, DeeplyNestedSubmissionIsACompileError) {
  // 30 000 nested parentheses used to overflow the parser's stack and
  // take the daemon down for every client. Now it is a compile error,
  // and the next ordinary job on the same daemon still matches the
  // local engine.
  const AnalysisRequest Req = defaultRequest();
  const BatchInput Deep{"int main(void) { return " + std::string(30000, '(') +
                            "0" + std::string(30000, ')') + "; }\n",
                        "deep.c"};
  const BatchInput Next = corpus()[0];
  std::vector<DriverOutcome> Local;
  {
    AnalysisEngine Eng(engineConfigFor(Req));
    Local = analyzeBatch(Eng, Req, {Next});
  }

  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;
  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;
  std::vector<DriverOutcome> Out;
  std::vector<double> Micros;
  ASSERT_TRUE(Client.runBatch(Req, {Deep}, Out, Micros, Err)) << Err;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FALSE(Out[0].CompileOk);
  EXPECT_NE(Out[0].CompileErrors.find("depth limit"), std::string::npos)
      << Out[0].CompileErrors;

  ASSERT_TRUE(Client.runBatch(Req, {Next}, Out, Micros, Err)) << Err;
  ASSERT_EQ(Out.size(), 1u);
  expectSameOutcome(Local[0], Out[0], "after the deep submission");
  D.stop();
}

TEST(ServeDaemonTest, GarbageFrameGetsProtocolErrorAndClose) {
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RawConn Raw;
  ASSERT_TRUE(Raw.open(D.Path));
  ASSERT_TRUE(Raw.eatHello());
  std::string Frame;
  appendFrame(Frame, "this is not json");
  ASSERT_TRUE(Raw.sendRaw(Frame));

  std::string Payload, Err;
  ASSERT_TRUE(Raw.readFrame(Payload, Err)) << Err;
  EXPECT_NE(Payload.find("\"type\":\"error\""), std::string::npos) << Payload;
  EXPECT_NE(Payload.find("\"code\":\"protocol\""), std::string::npos)
      << Payload;
  // Protocol errors are connection-fatal: the next read is EOF.
  EXPECT_FALSE(Raw.readFrame(Payload, Err));
  EXPECT_GE(D.Daemon->counters().ProtocolErrors, 1u);
  D.stop();
}

TEST(ServeDaemonTest, OutOfRangeRequestGetsBadRequest) {
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RawConn Raw;
  ASSERT_TRUE(Raw.open(D.Path));
  ASSERT_TRUE(Raw.eatHello());
  std::string Frame;
  appendFrame(Frame, "{\"type\":\"submit\",\"id\":9,\"name\":\"x.c\","
                     "\"source\":\"int main(void) { return 0; }\","
                     "\"request\":{\"search_runs\":4294967297}}");
  ASSERT_TRUE(Raw.sendRaw(Frame));

  std::string Payload, Err;
  ASSERT_TRUE(Raw.readFrame(Payload, Err)) << Err;
  EXPECT_NE(Payload.find("\"code\":\"bad_request\""), std::string::npos)
      << Payload;
  EXPECT_NE(Payload.find("\"id\":9"), std::string::npos) << Payload;
  D.stop();
}

TEST(ServeDaemonTest, OversizedFrameAnnouncementRejected) {
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RawConn Raw;
  ASSERT_TRUE(Raw.open(D.Path));
  ASSERT_TRUE(Raw.eatHello());
  // 4 GiB - 1 announced: rejected from the header alone, nothing
  // allocated, connection closed after a structured error.
  ASSERT_TRUE(Raw.sendRaw(std::string("\xFF\xFF\xFF\xFF", 4)));
  std::string Payload, Err;
  ASSERT_TRUE(Raw.readFrame(Payload, Err)) << Err;
  EXPECT_NE(Payload.find("\"code\":\"protocol\""), std::string::npos);
  EXPECT_FALSE(Raw.readFrame(Payload, Err));
  D.stop();
}

TEST(ServeDaemonTest, MidJobDisconnectDropsOnlyThatClient) {
  ServeConfig Cfg;
  Cfg.Engine.Workers = 1;
  DaemonFixture D;
  D.start(std::move(Cfg));
  if (HasFatalFailure())
    return;

  {
    RawConn Raw;
    ASSERT_TRUE(Raw.open(D.Path));
    ASSERT_TRUE(Raw.eatHello());
    std::string Frame;
    appendFrame(Frame,
                submitFrame(1, "doomed.c",
                            cundef_bench::deepTreeProgram(8, 64),
                            defaultRequest(64)));
    ASSERT_TRUE(Raw.sendRaw(Frame));
    ASSERT_TRUE(
        D.waitFor([&] { return D.Daemon->counters().Submitted >= 1; }));
  } // the client vanishes with its job in flight

  // The orphaned job still completes (results dropped), and the daemon
  // keeps serving.
  ASSERT_TRUE(D.waitFor([&] { return D.Daemon->counters().Completed >= 1; }));
  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;
  std::vector<DriverOutcome> Outcomes;
  std::vector<double> Micros;
  ASSERT_TRUE(Client.runBatch(defaultRequest(),
                              {{"int main(void){return 9;}", "alive.c"}},
                              Outcomes, Micros, Err))
      << Err;
  EXPECT_EQ(Outcomes[0].ExitCode, 9);
  D.stop();
}

//===----------------------------------------------------------------------===//
// Graceful drain.
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, SigtermDrainFinishesInflightAndFlushes) {
  ServeConfig Cfg;
  Cfg.Engine.Workers = 1;
  DaemonFixture D;
  D.start(std::move(Cfg));
  if (HasFatalFailure())
    return;

  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;
  const AnalysisRequest Req = defaultRequest(64);
  for (uint64_t Id = 1; Id <= 3; ++Id)
    ASSERT_TRUE(Client.send(
        submitFrame(Id, strFormat("drain%llu.c",
                                  static_cast<unsigned long long>(Id)),
                    cundef_bench::deepTreeProgram(6, 32, unsigned(Id)), Req),
        Err))
        << Err;
  ASSERT_TRUE(D.waitFor([&] { return D.Daemon->counters().Submitted >= 3; }));

  // Stop with all three in flight: the drain contract is that every
  // admitted job finishes and its result reaches the client.
  D.Daemon->requestStop();
  unsigned Finished = 0;
  while (Finished < 3) {
    RemoteMessage Msg;
    ASSERT_TRUE(Client.receive(Msg, Err, /*TimeoutMs=*/120000)) << Err;
    if (Msg.Type == "finished")
      ++Finished;
  }
  D.Loop.join();
  EXPECT_EQ(D.ExitCode, 0);
  ::unlink(D.Path.c_str());

  // After the drain the engine saw a clean shutdown; submits to a dead
  // socket fail at the transport, not by wedging.
  RemoteClient Late;
  EXPECT_FALSE(Late.connect(D.endpoint(), Err));
}

//===----------------------------------------------------------------------===//
// The service-mode reclaim fix + stats over the wire.
//===----------------------------------------------------------------------===//

TEST(ServeDaemonTest, ReclaimablesReturnToZeroBetweenBursts) {
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;

  // Three bursts through the long-lived daemon; after each, the
  // loop's idle-point reclamation must return every reclaimable
  // counter to zero — the service-mode blind spot this PR fixes (a
  // daemon never calls drain() in the batch sense, so without the
  // idle hook, graveyard artifacts and retained search state would
  // accumulate for the process lifetime).
  for (int Burst = 0; Burst < 3; ++Burst) {
    std::vector<DriverOutcome> Outcomes;
    std::vector<double> Micros;
    ASSERT_TRUE(
        Client.runBatch(defaultRequest(), corpus(), Outcomes, Micros, Err))
        << Err;
    ASSERT_TRUE(D.waitFor([&] {
      EngineMemoryStats M = D.Daemon->engine().memoryStats();
      return M.PendingJobs == 0 && M.GraveyardArtifacts == 0 &&
             M.RetainedPrograms == 0 && M.PendingSnapshots == 0;
    })) << "burst " << Burst << " left reclaimable state behind";
  }
  EXPECT_GE(D.Daemon->counters().IdleReclaims, 1u);

  // The same numbers are visible over the wire via a stats request.
  SchedulerStats Pool;
  EngineMemoryStats Memory;
  TranslationCacheStats Translation;
  ResultCacheStats ResultC;
  ASSERT_TRUE(Client.queryStats(Pool, Memory, Translation, ResultC, Err))
      << Err;
  EXPECT_EQ(Memory.PendingJobs, 0u);
  EXPECT_EQ(Memory.GraveyardArtifacts, 0u);
  EXPECT_EQ(Memory.RetainedPrograms, 0u);
  EXPECT_GT(Pool.RunsExecuted, 0u);
  // The duplicate-heavy corpus hits the warm translation cache.
  EXPECT_GT(Translation.Lookups, 0u);
  EXPECT_GT(Translation.Hits, 0u);
  D.stop();
}

TEST(ServeDaemonTest, WarmResultCacheSurvivesIdleReclamation) {
  // The result-cache satellite regression: the daemon's idle-point
  // reclamation releases per-job state (graveyard artifacts, retained
  // programs, pending snapshots) but must NOT flush the warm caches —
  // they are the point of a persistent service. Two identical bursts
  // separated by a real idle reclaim: the second burst must resolve
  // from the result cache (hit rate > 0 over the wire) with outcomes
  // identical to the first burst's.
  DaemonFixture D;
  D.start();
  if (HasFatalFailure())
    return;

  RemoteClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(D.endpoint(), Err)) << Err;

  std::vector<DriverOutcome> First, Second;
  std::vector<double> Micros;
  ASSERT_TRUE(Client.runBatch(defaultRequest(), corpus(), First, Micros, Err))
      << Err;

  // A genuine idle pass ran and the reclaimables are gone before the
  // second burst arrives.
  ASSERT_TRUE(D.waitFor([&] {
    EngineMemoryStats M = D.Daemon->engine().memoryStats();
    return D.Daemon->counters().IdleReclaims >= 1 && M.PendingJobs == 0 &&
           M.GraveyardArtifacts == 0 && M.RetainedPrograms == 0 &&
           M.PendingSnapshots == 0;
  })) << "no idle reclaim between the bursts";

  ResultCacheStats Before = D.Daemon->engine().resultCacheStats();
  ASSERT_TRUE(Client.runBatch(defaultRequest(), corpus(), Second, Micros, Err))
      << Err;
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    expectSameOutcome(First[I], Second[I], "burst #" + std::to_string(I));

  // Every submission of the identical second burst skipped its search:
  // the idle reclaim did not cost the cache a single warm entry.
  SchedulerStats Pool;
  EngineMemoryStats Memory;
  TranslationCacheStats Translation;
  ResultCacheStats ResultC;
  ASSERT_TRUE(Client.queryStats(Pool, Memory, Translation, ResultC, Err))
      << Err;
  EXPECT_GT(ResultC.hitRate(), 0.0);
  EXPECT_EQ(ResultC.Hits - Before.Hits, corpus().size())
      << "the whole second burst was served warm";
  EXPECT_EQ(ResultC.Misses, Before.Misses)
      << "no second-burst submission re-ran its search";
  D.stop();
}

} // namespace
