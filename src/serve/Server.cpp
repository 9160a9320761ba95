//===- serve/Server.cpp - The kcc-serve network daemon --------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "support/Strings.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cundef;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// One analysis event, copied out of the engine callback so the loop
/// thread owns every byte it will serialize (engine threads never
/// touch connection state).
struct EngineEvent {
  enum class Kind : uint8_t { UbFound, Truncated, Finished } K;
  size_t EngineJob = 0;
  std::vector<UbReport> Reports;   ///< UbFound
  unsigned Dropped = 0;            ///< Truncated
  DriverOutcome Outcome;           ///< Finished
  double WallMicros = 0.0;         ///< Finished
};

/// One client connection. Owned exclusively by the event-loop thread.
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;
  std::string ReadBuf;
  std::string WriteBuf;
  unsigned Inflight = 0;
  /// An error frame was queued and the connection ends once it
  /// flushes; no further frames are read.
  bool CloseWhenFlushed = false;
};

/// Where a submitted job's results go.
struct JobRoute {
  uint64_t ConnId = 0;
  uint64_t ClientJobId = 0;
  JobHandle Handle; ///< keeps the job's shared state pinned until finish
};

} // namespace

struct ServeDaemon::Impl final : EngineSink {
  explicit Impl(ServeConfig Cfg)
      : Cfg(std::move(Cfg)), Eng(this->Cfg.Engine) {}

  ServeConfig Cfg;
  AnalysisEngine Eng;

  int TcpFd = -1;
  int UnixFd = -1;
  unsigned BoundTcpPort = 0;
  int PipeR = -1, PipeW = -1;

  uint64_t NextConnId = 1;
  std::unordered_map<uint64_t, Conn> Conns;
  /// Engine job id -> route. Size is the global in-flight count the
  /// queue-depth admission bound checks.
  std::unordered_map<size_t, JobRoute> Routes;

  std::mutex QueueMu;
  std::deque<EngineEvent> Queue;

  bool Draining = false;
  std::atomic<bool> StopSeen{false};

  std::atomic<uint64_t> CAccepted{0}, CRejected{0}, CSubmitted{0},
      CCompleted{0}, CProtocolErrors{0}, CSlowReader{0}, CIdleReclaims{0};

  //===--------------------------------------------------------------------===//
  // EngineSink (engine threads)
  //===--------------------------------------------------------------------===//

  void wake() {
    char B = 'w';
    // EAGAIN means the pipe already holds unread wakeups — the loop is
    // waking regardless, so dropping this byte is fine.
    [[maybe_unused]] ssize_t N = ::write(PipeW, &B, 1);
  }

  void push(EngineEvent E) {
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Queue.push_back(std::move(E));
    }
    wake();
  }

  void onProgramFinished(const EngineJobInfo &Job, const DriverOutcome &O,
                         double WallMicros) override {
    EngineEvent E;
    E.K = EngineEvent::Kind::Finished;
    E.EngineJob = Job.Job;
    E.Outcome = O;
    E.WallMicros = WallMicros;
    push(std::move(E));
  }

  void onUbFound(const EngineJobInfo &Job,
                 const std::vector<UbReport> &Reports) override {
    EngineEvent E;
    E.K = EngineEvent::Kind::UbFound;
    E.EngineJob = Job.Job;
    E.Reports = Reports;
    push(std::move(E));
  }

  void onFrontierTruncated(const EngineJobInfo &Job,
                           unsigned DroppedSubtrees) override {
    EngineEvent E;
    E.K = EngineEvent::Kind::Truncated;
    E.EngineJob = Job.Job;
    E.Dropped = DroppedSubtrees;
    push(std::move(E));
  }

  //===--------------------------------------------------------------------===//
  // Connection plumbing (loop thread only)
  //===--------------------------------------------------------------------===//

  void queueFrame(Conn &C, const std::string &Payload) {
    appendFrame(C.WriteBuf, Payload);
    // Opportunistic flush keeps latency down and the buffer small; the
    // poll loop finishes whatever EAGAINs here.
    flushConn(C);
  }

  /// Returns false when the connection died (buffer overflow or a
  /// hard socket error); the caller must drop it.
  bool flushConn(Conn &C) {
    while (!C.WriteBuf.empty()) {
      ssize_t N = ::send(C.Fd, C.WriteBuf.data(), C.WriteBuf.size(),
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        return false;
      }
      C.WriteBuf.erase(0, static_cast<size_t>(N));
    }
    if (C.WriteBuf.size() > Cfg.MaxWriteBufferBytes) {
      // Slow-reader backpressure: this client is not draining its
      // results; cutting it is the only bounded-memory option.
      ++CSlowReader;
      return false;
    }
    return true;
  }

  void dropConn(uint64_t ConnId) {
    auto It = Conns.find(ConnId);
    if (It == Conns.end())
      return;
    ::close(It->second.Fd);
    Conns.erase(It);
    // In-flight jobs of the vanished client keep running (the engine
    // has no per-job cancellation); their results are dropped when the
    // finished events find no connection.
  }

  void protocolError(Conn &C, uint64_t Id, const std::string &Message) {
    ++CProtocolErrors;
    queueFrame(C, errorFrame(Id, serveerr::Protocol, Message));
    C.CloseWhenFlushed = true;
  }

  //===--------------------------------------------------------------------===//
  // Message handling (loop thread only)
  //===--------------------------------------------------------------------===//

  void handleSubmit(Conn &C, uint64_t Id, const JsonValue &Msg) {
    if (Draining) {
      ++CRejected;
      queueFrame(C, errorFrame(Id, serveerr::ShuttingDown,
                               "daemon is draining; resubmit elsewhere"));
      return;
    }
    if (C.Inflight >= Cfg.MaxInflightPerClient) {
      ++CRejected;
      queueFrame(C, errorFrame(
                        Id, serveerr::Overloaded,
                        strFormat("per-client in-flight limit (%u) reached",
                                  Cfg.MaxInflightPerClient)));
      return;
    }
    if (Routes.size() >= Cfg.MaxQueueDepth) {
      ++CRejected;
      queueFrame(C, errorFrame(Id, serveerr::Overloaded,
                               strFormat("queue depth limit (%u) reached",
                                         Cfg.MaxQueueDepth)));
      return;
    }
    const JsonValue *Source = Msg.get("source");
    if (!Source || !Source->isString()) {
      ++CRejected;
      queueFrame(C, errorFrame(Id, serveerr::BadRequest,
                               "submit requires a string 'source'"));
      return;
    }
    std::string Name = Msg.getString("name");
    if (Name.empty())
      Name = "remote.c";
    AnalysisRequest Req;
    if (const JsonValue *RV = Msg.get("request")) {
      std::string Err;
      if (!parseRequest(*RV, Req, Err)) {
        ++CRejected;
        queueFrame(C, errorFrame(Id, serveerr::BadRequest, Err));
        return;
      }
    }
    JobHandle H = Eng.submit(Req, Source->asString(), Name, this);
    JobRoute Route;
    Route.ConnId = C.Id;
    Route.ClientJobId = Id;
    Route.Handle = H;
    // Registered before the loop ever touches the event queue again,
    // so no event of this job can miss its route.
    Routes.emplace(H.id(), std::move(Route));
    ++C.Inflight;
    ++CSubmitted;
  }

  void handleMessage(Conn &C, const std::string &Payload) {
    JsonValue Msg;
    std::string Err;
    if (!JsonValue::parse(Payload, Msg, Err) || !Msg.isObject()) {
      protocolError(C, 0, Err.empty() ? "message must be a JSON object" : Err);
      return;
    }
    uint64_t Id = Msg.getU64("id", 0);
    const std::string &Type = Msg.getString("type");
    if (Type == "submit") {
      handleSubmit(C, Id, Msg);
    } else if (Type == "stats") {
      queueFrame(C, statsResultFrame(Id, Eng.poolStats(), Eng.memoryStats(),
                                     Eng.translationStats(),
                                     Eng.resultCacheStats()));
    } else {
      protocolError(C, Id, "unknown message type '" + Type + "'");
    }
  }

  void handleReadable(uint64_t ConnId) {
    auto It = Conns.find(ConnId);
    if (It == Conns.end())
      return;
    Conn &C = It->second;
    char Chunk[16384];
    while (true) {
      ssize_t N = ::recv(C.Fd, Chunk, sizeof(Chunk), 0);
      if (N == 0) {
        dropConn(ConnId);
        return;
      }
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        dropConn(ConnId);
        return;
      }
      C.ReadBuf.append(Chunk, static_cast<size_t>(N));
    }
    while (!C.CloseWhenFlushed) {
      std::string Payload;
      int Got = extractFrame(C.ReadBuf, Payload);
      if (Got == 0)
        break;
      if (Got == -1) {
        protocolError(C, 0, "announced frame exceeds the size limit");
        break;
      }
      handleMessage(C, Payload);
      // handleMessage may have queued a fatal error; the flags above
      // stop further parsing, the flush path closes the socket.
      if (Conns.find(ConnId) == Conns.end())
        return; // the flush inside queueFrame detected a dead peer
    }
    auto Again = Conns.find(ConnId);
    if (Again != Conns.end() && !flushConn(Again->second))
      dropConn(ConnId);
    else if (Again != Conns.end() && Again->second.CloseWhenFlushed &&
             Again->second.WriteBuf.empty())
      dropConn(ConnId);
  }

  //===--------------------------------------------------------------------===//
  // Engine events (loop thread only)
  //===--------------------------------------------------------------------===//

  /// Drains the engine-event queue into connection write buffers.
  /// Returns true if any job finished (the idle-reclaim trigger).
  bool processEngineEvents() {
    std::deque<EngineEvent> Batch;
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Batch.swap(Queue);
    }
    bool AnyFinished = false;
    for (EngineEvent &E : Batch) {
      auto RIt = Routes.find(E.EngineJob);
      if (RIt == Routes.end())
        continue; // job of a connection that was already dropped
      JobRoute &Route = RIt->second;
      auto CIt = Conns.find(Route.ConnId);
      Conn *C = CIt == Conns.end() ? nullptr : &CIt->second;
      switch (E.K) {
      case EngineEvent::Kind::UbFound:
        if (C)
          queueFrame(*C, ubFoundFrame(Route.ClientJobId, E.Reports));
        break;
      case EngineEvent::Kind::Truncated:
        if (C)
          queueFrame(*C, frontierTruncatedFrame(Route.ClientJobId, E.Dropped));
        break;
      case EngineEvent::Kind::Finished: {
        // Bookkeeping strictly before the result frame goes out: the
        // instant the client reads it, counters and admission state
        // must already reflect the completion.
        const uint64_t ClientJobId = Route.ClientJobId;
        Routes.erase(RIt);
        ++CCompleted;
        AnyFinished = true;
        if (C) {
          if (C->Inflight)
            --C->Inflight;
          queueFrame(*C, finishedFrame(ClientJobId, E.Outcome, E.WallMicros));
        }
        break;
      }
      }
    }
    return AnyFinished;
  }

  /// The service-mode reclamation fix: reclaimFinished() only frees
  /// per-program state when the pool is provably idle, which a
  /// saturated daemon never observes from the outside. The loop calls
  /// this at every momentary idle point (in-flight hit zero), where
  /// drain() completes immediately and sweeps arenas, visited sets and
  /// stranded snapshots (artifacts go with their program's last run) —
  /// so a long-lived daemon's footprint tracks its current load, not
  /// its history.
  void maybeReclaim(bool AnyFinished) {
    if (!AnyFinished || !Routes.empty())
      return;
    Eng.drain();
    ++CIdleReclaims;
  }

  //===--------------------------------------------------------------------===//
  // Listeners
  //===--------------------------------------------------------------------===//

  void acceptFrom(int ListenFd) {
    while (true) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        return; // EAGAIN: accepted everything pending
      }
      if (Conns.size() >= Cfg.MaxClients || !setNonBlocking(Fd)) {
        ::close(Fd);
        continue;
      }
      Conn C;
      C.Fd = Fd;
      C.Id = NextConnId++;
      ++CAccepted;
      uint64_t Id = C.Id;
      auto Ins = Conns.emplace(Id, std::move(C));
      queueFrame(Ins.first->second, helloFrame(Eng.workers()));
      if (!Ins.first->second.WriteBuf.empty() &&
          !flushConn(Ins.first->second)) {
        dropConn(Id);
      }
    }
  }

  void closeListeners() {
    if (TcpFd >= 0) {
      ::close(TcpFd);
      TcpFd = -1;
    }
    if (UnixFd >= 0) {
      ::close(UnixFd);
      UnixFd = -1;
      if (!Cfg.UnixPath.empty())
        ::unlink(Cfg.UnixPath.c_str());
    }
  }

  //===--------------------------------------------------------------------===//
  // The loop
  //===--------------------------------------------------------------------===//

  void drainPipe() {
    char Buf[256];
    while (true) {
      ssize_t N = ::read(PipeR, Buf, sizeof(Buf));
      if (N <= 0)
        return;
      for (ssize_t I = 0; I < N; ++I)
        if (Buf[I] == 's')
          StopSeen.store(true, std::memory_order_relaxed);
    }
  }

  int run() {
    while (true) {
      bool Finished = processEngineEvents();
      maybeReclaim(Finished);
      if (StopSeen.load(std::memory_order_relaxed) && !Draining) {
        Draining = true;
        closeListeners();
      }
      if (Draining && Routes.empty()) {
        std::lock_guard<std::mutex> Lock(QueueMu);
        if (Queue.empty())
          break;
        continue; // events raced in; loop once more
      }

      std::vector<pollfd> Fds;
      std::vector<uint64_t> Ids; // 0 = not a connection
      auto add = [&](int Fd, short Events, uint64_t ConnId) {
        Fds.push_back({Fd, Events, 0});
        Ids.push_back(ConnId);
      };
      add(PipeR, POLLIN, 0);
      if (!Draining && TcpFd >= 0)
        add(TcpFd, POLLIN, 0);
      if (!Draining && UnixFd >= 0)
        add(UnixFd, POLLIN, 0);
      for (auto &Entry : Conns) {
        short Events = POLLIN;
        if (!Entry.second.WriteBuf.empty())
          Events |= POLLOUT;
        add(Entry.second.Fd, Events, Entry.first);
      }

      int R = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), -1);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return 1; // unrecoverable loop error
      }

      for (size_t I = 0; I < Fds.size(); ++I) {
        if (!Fds[I].revents)
          continue;
        if (Fds[I].fd == PipeR) {
          drainPipe();
        } else if (Ids[I] == 0) {
          acceptFrom(Fds[I].fd);
        } else {
          uint64_t ConnId = Ids[I];
          if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
            // POLLHUP with readable data still delivers POLLIN first on
            // Linux; by the time only HUP remains the peer is gone.
            if (!(Fds[I].revents & POLLIN)) {
              dropConn(ConnId);
              continue;
            }
          }
          if (Fds[I].revents & POLLIN)
            handleReadable(ConnId);
          auto It = Conns.find(ConnId);
          if (It != Conns.end() && (Fds[I].revents & POLLOUT)) {
            if (!flushConn(It->second))
              dropConn(ConnId);
            else if (It->second.CloseWhenFlushed &&
                     It->second.WriteBuf.empty())
              dropConn(ConnId);
          }
        }
      }
    }

    // Drained: every job finished and its result is buffered. Give
    // slow readers a bounded window to take delivery, then close.
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Cfg.DrainFlushMs);
    while (std::chrono::steady_clock::now() < Deadline) {
      std::vector<pollfd> Fds;
      std::vector<uint64_t> Ids;
      for (auto &Entry : Conns)
        if (!Entry.second.WriteBuf.empty()) {
          Fds.push_back({Entry.second.Fd, POLLOUT, 0});
          Ids.push_back(Entry.first);
        }
      if (Fds.empty())
        break;
      int R = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 50);
      if (R < 0 && errno != EINTR)
        break;
      for (size_t I = 0; I < Fds.size(); ++I)
        if (Fds[I].revents & (POLLOUT | POLLERR | POLLHUP))
          if (auto It = Conns.find(Ids[I]); It != Conns.end())
            if (!flushConn(It->second))
              dropConn(Ids[I]);
    }
    std::vector<uint64_t> All;
    All.reserve(Conns.size());
    for (auto &Entry : Conns)
      All.push_back(Entry.first);
    for (uint64_t Id : All)
      dropConn(Id);
    Eng.shutdown();
    return 0;
  }
};

//===----------------------------------------------------------------------===//
// ServeDaemon
//===----------------------------------------------------------------------===//

ServeDaemon::ServeDaemon(ServeConfig Cfg)
    : I(std::make_unique<Impl>(std::move(Cfg))) {
  int Pipe[2] = {-1, -1};
  if (::pipe(Pipe) == 0) {
    setNonBlocking(Pipe[0]);
    setNonBlocking(Pipe[1]);
    I->PipeR = Pipe[0];
    I->PipeW = Pipe[1];
    StopFd = Pipe[1];
  }
}

ServeDaemon::~ServeDaemon() {
  I->closeListeners();
  if (I->PipeR >= 0)
    ::close(I->PipeR);
  if (I->PipeW >= 0)
    ::close(I->PipeW);
}

bool ServeDaemon::listen(std::string &Err) {
  if (I->PipeR < 0) {
    Err = "self-pipe creation failed";
    return false;
  }
  if (I->Cfg.UnixPath.empty() && !I->Cfg.UseTcp) {
    Err = "no listen endpoint configured (need a socket path or a TCP port)";
    return false;
  }
  if (!I->Cfg.UnixPath.empty()) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    if (I->Cfg.UnixPath.size() >= sizeof(Addr.sun_path)) {
      Err = strFormat("socket path too long (%zu bytes, max %zu)",
                      I->Cfg.UnixPath.size(), sizeof(Addr.sun_path) - 1);
      return false;
    }
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = strFormat("socket(AF_UNIX) failed: %s", std::strerror(errno));
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::strcpy(Addr.sun_path, I->Cfg.UnixPath.c_str());
    ::unlink(I->Cfg.UnixPath.c_str()); // replace a stale socket file
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 64) < 0 || !setNonBlocking(Fd)) {
      Err = strFormat("cannot listen on unix:%s: %s",
                      I->Cfg.UnixPath.c_str(), std::strerror(errno));
      ::close(Fd);
      return false;
    }
    I->UnixFd = Fd;
  }
  if (I->Cfg.UseTcp) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = strFormat("socket(AF_INET) failed: %s", std::strerror(errno));
      I->closeListeners();
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(I->Cfg.TcpPort));
    if (::inet_pton(AF_INET, I->Cfg.TcpHost.c_str(), &Addr.sin_addr) != 1) {
      Err = strFormat("invalid listen address '%s' (expected an IPv4 "
                      "address)",
                      I->Cfg.TcpHost.c_str());
      ::close(Fd);
      I->closeListeners();
      return false;
    }
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 64) < 0 || !setNonBlocking(Fd)) {
      Err = strFormat("cannot listen on %s:%u: %s", I->Cfg.TcpHost.c_str(),
                      I->Cfg.TcpPort, std::strerror(errno));
      ::close(Fd);
      I->closeListeners();
      return false;
    }
    sockaddr_in Bound;
    socklen_t Len = sizeof(Bound);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
      I->BoundTcpPort = ntohs(Bound.sin_port);
    I->TcpFd = Fd;
  }
  return true;
}

unsigned ServeDaemon::tcpPort() const { return I->BoundTcpPort; }

int ServeDaemon::run() { return I->run(); }

void ServeDaemon::requestStop() {
  // Async-signal-safe: one write(2) to a pre-opened non-blocking pipe.
  if (StopFd >= 0) {
    char B = 's';
    [[maybe_unused]] ssize_t N = ::write(StopFd, &B, 1);
  }
}

AnalysisEngine &ServeDaemon::engine() { return I->Eng; }

ServeCounters ServeDaemon::counters() const {
  ServeCounters C;
  C.Accepted = I->CAccepted.load();
  C.Rejected = I->CRejected.load();
  C.Submitted = I->CSubmitted.load();
  C.Completed = I->CCompleted.load();
  C.ProtocolErrors = I->CProtocolErrors.load();
  C.SlowReaderDisconnects = I->CSlowReader.load();
  C.IdleReclaims = I->CIdleReclaims.load();
  return C;
}
