//===- serve/Protocol.h - The cundef-kcc-v1 wire protocol -------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between kcc-serve and its clients: length-prefixed
/// JSON frames carrying the same `cundef-kcc-v1` vocabulary kcc --json
/// already emits (docs/SERVE.md specifies the framing and message
/// schemas; docs/JSON_OUTPUT.md the shared field meanings).
///
/// Framing: every message is one frame — a 4-byte big-endian payload
/// length followed by exactly that many bytes of ASCII JSON, written
/// in the compact layout of support/Json.h (whose byte-transparent
/// escaping keeps payloads pure ASCII). Frames above a size cap are
/// protocol errors, never silently truncated.
///
/// Both ends serialize and parse AnalysisRequest, DriverOutcome,
/// findings, and engine stats through these functions, each backed by
/// one field list, so the two sides can never drift — and the remote
/// client can hand kcc a DriverOutcome that renders byte-identically
/// to a local run. Integers must fit their field exactly; a value that
/// does not is a parse error, never a truncation.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SERVE_PROTOCOL_H
#define CUNDEF_SERVE_PROTOCOL_H

#include "driver/Driver.h"
#include "driver/Engine.h"
#include "driver/Request.h"
#include "support/Json.h"

#include <string>

namespace cundef {

/// The protocol identifier sent in the server's hello frame. Shares the
/// version lineage of the kcc --json schema: additions are
/// backward-compatible, renames would bump it.
inline constexpr const char *ServeProtocolName = "cundef-kcc-v1";

/// Hard ceiling on one frame's payload (submissions carry whole
/// translation units; 64 MiB is far above any plausible one). A peer
/// announcing a larger frame is a protocol error — the connection is
/// closed before any allocation.
inline constexpr size_t ServeMaxFrameBytes = 64u << 20;

/// Structured error codes of `error` frames (stable strings; clients
/// branch on them, docs/SERVE.md lists them).
namespace serveerr {
inline constexpr const char *Overloaded = "overloaded";
inline constexpr const char *BadRequest = "bad_request";
inline constexpr const char *Protocol = "protocol";
inline constexpr const char *ShuttingDown = "shutting_down";
} // namespace serveerr

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Appends the 4-byte big-endian length prefix plus \p Payload to
/// \p Buffer (the daemon's buffered-write path).
void appendFrame(std::string &Buffer, const std::string &Payload);

/// Tries to extract one complete frame from the front of \p Buffer.
/// Returns 1 and erases the consumed bytes on success, 0 when more
/// bytes are needed, -1 when the announced length exceeds \p MaxBytes
/// (protocol error; buffer left untouched).
int extractFrame(std::string &Buffer, std::string &Payload,
                 size_t MaxBytes = ServeMaxFrameBytes);

/// Blocking whole-frame write to a connected socket (the client's
/// path). Returns false on any socket error.
bool writeFrameBlocking(int Fd, const std::string &Payload);

/// Blocking whole-frame read with an optional timeout. \p Buffer is
/// the connection's persistent stream buffer: one recv may deliver
/// several back-to-back frames, and the bytes after the extracted one
/// must survive into the next call — pass the same buffer for the
/// connection's whole lifetime. Returns false with a diagnostic in
/// \p Err on error, EOF, oversized frame, or timeout (\p TimeoutMs < 0
/// waits forever).
bool readFrameBlocking(int Fd, std::string &Buffer, std::string &Payload,
                       std::string &Err, int TimeoutMs = -1,
                       size_t MaxBytes = ServeMaxFrameBytes);

//===----------------------------------------------------------------------===//
// Message bodies
//===----------------------------------------------------------------------===//

/// AnalysisRequest <-> JSON. The serialization carries the full
/// validated surface (target parameters, machine options, search
/// configuration), and parsing re-validates through the Builder, so a
/// daemon can never be talked into a configuration a local kcc would
/// have rejected. parse returns false with a diagnostic for unknown
/// enum names or Builder rejections.
std::string serializeRequest(const AnalysisRequest &Req);
bool parseRequest(const JsonValue &V, AnalysisRequest &Out, std::string &Err);

/// DriverOutcome <-> JSON. Lossless over every field, so the remote
/// client reconstructs exactly what the daemon's engine produced and
/// kcc's rendering is byte-identical to a local run's.
std::string serializeOutcome(const DriverOutcome &O);
bool parseOutcome(const JsonValue &V, DriverOutcome &Out, std::string &Err);

/// Findings (shared by outcome bodies and `ub_found` event frames).
std::string serializeFindings(const std::vector<UbReport> &Reports);
bool parseFindings(const JsonValue &V, std::vector<UbReport> &Out,
                   std::string &Err);

/// Engine stats <-> JSON (the `stats_result` frame body: the over-the-
/// wire rendering of AnalysisEngine::poolStats() / memoryStats() /
/// translationStats() / resultCacheStats()).
std::string serializeStats(const SchedulerStats &Pool,
                           const EngineMemoryStats &Memory,
                           const TranslationCacheStats &Translation,
                           const ResultCacheStats &ResultC);
bool parseStats(const JsonValue &V, SchedulerStats &Pool,
                EngineMemoryStats &Memory, TranslationCacheStats &Translation,
                ResultCacheStats &ResultC, std::string &Err);

//===----------------------------------------------------------------------===//
// Whole frames
//===----------------------------------------------------------------------===//

/// Server -> client greeting, sent once per connection.
std::string helloFrame(unsigned Workers);

/// Client -> server messages.
std::string submitFrame(uint64_t Id, const std::string &Name,
                        const std::string &Source,
                        const AnalysisRequest &Req);
std::string statsFrame(uint64_t Id);

/// Server -> client messages.
std::string errorFrame(uint64_t Id, const char *Code,
                       const std::string &Message);
std::string ubFoundFrame(uint64_t Id, const std::vector<UbReport> &Reports);
std::string frontierTruncatedFrame(uint64_t Id, unsigned DroppedSubtrees);
std::string finishedFrame(uint64_t Id, const DriverOutcome &Outcome,
                          double WallMicros);
std::string statsResultFrame(uint64_t Id, const SchedulerStats &Pool,
                             const EngineMemoryStats &Memory,
                             const TranslationCacheStats &Translation,
                             const ResultCacheStats &ResultC);

} // namespace cundef

#endif // CUNDEF_SERVE_PROTOCOL_H
