//===- tools/kcc_serve.cpp - The kcc analysis daemon ----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// A long-running analysis service: accepts concurrent clients over TCP
// and Unix-domain sockets (the length-prefixed cundef-kcc-v1 protocol,
// docs/SERVE.md) and multiplexes every submission onto ONE warm
// AnalysisEngine, so a fleet of kcc invocations pays pool spawn and
// frontend work once instead of once per process.
//
//   kcc-serve [options]
//     --socket=PATH          listen on a Unix-domain socket
//     --port=N               listen on TCP (127.0.0.1 by default;
//                            0 binds an ephemeral port, printed in the
//                            ready line)
//     --host=ADDR            TCP bind address (IPv4)
//     --max-clients=N        concurrent connections (default 64)
//     --max-inflight=N       per-client in-flight jobs (default 16)
//     --max-queue=N          engine-wide in-flight jobs (default 1024)
//     --workers=N            search-pool threads (0 = hardware)
//     --translation-cache=on|off
//     --result-cache=on|off  engine-wide search-result cache
//
// At least one endpoint is required. The daemon prints one
// "kcc-serve: listening on ..." line per endpoint to stderr once it is
// accepting (scripts wait for those lines), runs until SIGTERM/SIGINT,
// then drains: stops accepting, finishes in-flight jobs, flushes
// results, exits 0.
//
// Flags are validated strictly: non-numeric values, a zero client or
// in-flight bound, an out-of-range port, or a missing endpoint are
// usage errors (exit 2), never silently coerced.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Strings.h"

#include <csignal>
#include <cstdio>
#include <cstring>

using namespace cundef;

static void usage() {
  std::fprintf(stderr,
               "usage: kcc-serve [options]  (at least one endpoint)\n"
               "  --socket=PATH          Unix-domain socket endpoint\n"
               "  --port=N               TCP endpoint (0 = ephemeral)\n"
               "  --host=ADDR            TCP bind address (default "
               "127.0.0.1)\n"
               "  --max-clients=N        concurrent connections\n"
               "  --max-inflight=N       per-client in-flight jobs\n"
               "  --max-queue=N          engine-wide in-flight jobs\n"
               "  --workers=N            search workers (0 = hardware)\n"
               "  --translation-cache=on|off\n"
               "  --result-cache=on|off\n");
}

static bool parseNumericFlag(const char *Name, const char *Value,
                             unsigned &Out) {
  if (parseUnsigned(Value, Out))
    return true;
  std::fprintf(stderr, "kcc-serve: invalid value '%s' for %s (expected a "
                       "non-negative integer)\n",
               Value, Name);
  return false;
}

static ServeDaemon *ActiveDaemon = nullptr;

static void onSignal(int) {
  // Async-signal-safe: requestStop() is one write(2) to a self-pipe.
  if (ActiveDaemon)
    ActiveDaemon->requestStop();
}

int main(int argc, char **argv) {
  ServeConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (startsWith(Arg, "--socket=")) {
      Cfg.UnixPath = Arg + 9;
      if (Cfg.UnixPath.empty()) {
        std::fprintf(stderr, "kcc-serve: --socket= requires a path\n");
        return 2;
      }
    } else if (startsWith(Arg, "--port=")) {
      unsigned Port = 0;
      if (!parseNumericFlag("--port", Arg + 7, Port))
        return 2;
      if (Port > 65535) {
        std::fprintf(stderr,
                     "kcc-serve: invalid value '%u' for --port "
                     "(expected 0..65535)\n",
                     Port);
        return 2;
      }
      Cfg.UseTcp = true;
      Cfg.TcpPort = Port;
    } else if (startsWith(Arg, "--host=")) {
      Cfg.TcpHost = Arg + 7;
      if (Cfg.TcpHost.empty()) {
        std::fprintf(stderr, "kcc-serve: --host= requires an address\n");
        return 2;
      }
    } else if (startsWith(Arg, "--max-clients=")) {
      if (!parseNumericFlag("--max-clients", Arg + 14, Cfg.MaxClients))
        return 2;
      if (Cfg.MaxClients == 0) {
        std::fprintf(stderr, "kcc-serve: --max-clients must be at least 1\n");
        return 2;
      }
    } else if (startsWith(Arg, "--max-inflight=")) {
      if (!parseNumericFlag("--max-inflight", Arg + 15,
                            Cfg.MaxInflightPerClient))
        return 2;
      if (Cfg.MaxInflightPerClient == 0) {
        std::fprintf(stderr, "kcc-serve: --max-inflight must be at least 1\n");
        return 2;
      }
    } else if (startsWith(Arg, "--max-queue=")) {
      if (!parseNumericFlag("--max-queue", Arg + 12, Cfg.MaxQueueDepth))
        return 2;
      if (Cfg.MaxQueueDepth == 0) {
        std::fprintf(stderr, "kcc-serve: --max-queue must be at least 1\n");
        return 2;
      }
    } else if (startsWith(Arg, "--workers=")) {
      if (!parseNumericFlag("--workers", Arg + 10, Cfg.Engine.Workers))
        return 2;
      // Explicit worker counts mean what they say, even above hardware
      // concurrency (the engine clamp is for request-sized pools).
      if (Cfg.Engine.Workers != 0)
        Cfg.Engine.ClampWorkersToHardware = false;
    } else if (startsWith(Arg, "--translation-cache=")) {
      // "on" keeps the default capacity; "off" sizes the cache to 0.
      bool On = true;
      if (!enumFromName(OnOffNames, Arg + 20, On)) {
        usage();
        return 2;
      }
      if (!On)
        Cfg.Engine.TranslationCacheEntries = 0;
    } else if (startsWith(Arg, "--result-cache=")) {
      bool On = true;
      if (!enumFromName(OnOffNames, Arg + 15, On)) {
        usage();
        return 2;
      }
      if (!On)
        Cfg.Engine.ResultCacheEntries = 0;
    } else {
      usage();
      return 2;
    }
  }
  if (Cfg.UnixPath.empty() && !Cfg.UseTcp) {
    std::fprintf(stderr,
                 "kcc-serve: no endpoint (give --socket=PATH or --port=N)\n");
    usage();
    return 2;
  }

  const std::string UnixPath = Cfg.UnixPath;
  const std::string TcpHost = Cfg.TcpHost;
  const bool UseTcp = Cfg.UseTcp;

  ServeDaemon Daemon(std::move(Cfg));
  std::string Err;
  if (!Daemon.listen(Err)) {
    std::fprintf(stderr, "kcc-serve: %s\n", Err.c_str());
    return 1;
  }

  ActiveDaemon = &Daemon;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  // Ready lines: one per endpoint, emitted only once accepting. The
  // remote CLI test and the bench wait for these (and read the
  // resolved port when --port=0 asked for an ephemeral one).
  if (!UnixPath.empty())
    std::fprintf(stderr, "kcc-serve: listening on unix:%s\n",
                 UnixPath.c_str());
  if (UseTcp)
    std::fprintf(stderr, "kcc-serve: listening on %s:%u\n", TcpHost.c_str(),
                 Daemon.tcpPort());
  std::fprintf(stderr, "kcc-serve: ready (workers=%u)\n",
               Daemon.engine().workers());

  int Code = Daemon.run();
  ActiveDaemon = nullptr;
  return Code;
}
