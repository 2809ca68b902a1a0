//===- Wire.h - Length-prefixed binary frame protocol -----------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed, typed grammar the specialization service speaks on a TCP
/// socket (docs/WIRE.md is the normative spec). A connection opens with
/// an 8-byte magic/version preamble from each side; after that, both
/// directions carry length-prefixed frames:
///
///   u32 PayloadLen | u8 Type | u8 Flags | u16 Rsvd | u64 Tag | payload
///
/// all little-endian. The client chooses Tag; every reply echoes it, so
/// a connection can pipeline many requests and take replies out of
/// order. Request payloads carry function names and host-side Values
/// (never machine addresses — see docs/SERVICE.md); Error replies carry
/// the ABI-locked FabErrc numerics (FabError.h) plus an advisory
/// retry-after hint from the overload machinery.
///
/// Everything here is pure byte manipulation — no sockets — so the
/// codec is unit-testable and fuzzable without a network. FrameReader
/// is the incremental decoder both endpoints run over their receive
/// buffers: feed() arbitrary chunks, next() yields complete frames, and
/// oversized length prefixes are refused before any allocation.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_NET_WIRE_H
#define FAB_NET_WIRE_H

#include "core/FabError.h"
#include "service/SpecCache.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fab {
namespace net {

/// "FABW" as the first four bytes on the wire (u32 little-endian).
constexpr uint32_t WireMagic = 0x57424146u;
constexpr uint16_t WireVersion = 1;
constexpr size_t PreambleBytes = 8;     ///< magic u32, version u16, rsvd u16
constexpr size_t FrameHeaderBytes = 16; ///< len u32, type u8, flags u8,
                                        ///< rsvd u16, tag u64

/// Refusal ceilings, enforced during decode (before allocation) so a
/// hostile length prefix cannot balloon memory.
constexpr uint32_t DefaultMaxFrameBytes = 16u << 20;
constexpr uint32_t MaxValuesPerList = 4096;
constexpr uint32_t MaxVecElems = 1u << 20;
constexpr uint32_t MaxStringBytes = 65535;

/// Frame types. Requests are < 0x80, replies have the high bit set.
/// Values are wire ABI: never renumber, add at the end.
enum class FrameType : uint8_t {
  SubmitSpecialize = 0x01, ///< fn, early, late, deadline, retries -> Result
  Call = 0x02,             ///< fn, early, late (no options) -> Result
  Invalidate = 0x03,       ///< fn ("" = all) -> InvalidateReply
  Stats = 0x04,            ///< empty -> StatsReply
  Ping = 0x05,             ///< empty -> Pong (liveness / RTT probe)
  Result = 0x81,           ///< i32 call result
  Error = 0x82,            ///< code, retry-after hint, message
  StatsReply = 0x83,       ///< self-describing name/value counter pairs
  InvalidateReply = 0x84,  ///< u64 entries dropped pool-wide
  Pong = 0x85,             ///< empty
};

/// Error codes carried in Error frames: 0..99 are the ABI-locked
/// FabErrc numerics passed through verbatim; 100+ are wire-layer
/// conditions that never occur in-process. ConnectionLost is synthetic
/// (client-side only): the socket died before a reply arrived.
enum class WireErrc : uint16_t {
  BadMagic = 100,
  BadVersion = 101,
  BadFrame = 102,
  FrameTooLarge = 103,
  UnknownType = 104,
  ConnectionLost = 105,
};

inline uint16_t wireCode(FabErrc C) { return static_cast<uint16_t>(C); }
inline uint16_t wireCode(WireErrc C) { return static_cast<uint16_t>(C); }

/// Stable lower-case token for an error code from either range
/// (fabctl output, log lines).
const char *wireErrcName(uint16_t Code);

struct FrameHeader {
  uint32_t Len = 0; ///< payload bytes after the header
  FrameType Type = FrameType::Ping;
  uint8_t Flags = 0;
  uint64_t Tag = 0;
};

struct Frame {
  FrameHeader H;
  std::vector<uint8_t> Payload;
};

/// Decoded SubmitSpecialize/Call payload (Call leaves the options 0).
struct SubmitBody {
  std::string Fn;
  std::vector<service::Value> Early, Late;
  uint64_t DeadlineNs = 0;
  uint32_t MaxRetries = 0;
};

/// Decoded Error payload.
struct ErrorBody {
  uint16_t Code = 0;
  uint32_t RetryAfterUs = 0; ///< advisory backoff hint; 0 = none
  std::string Message;
};

using StatsPairs = std::vector<std::pair<std::string, uint64_t>>;

//===----------------------------------------------------------------------===//
// Encoding (append-to-buffer primitives + whole-frame builders)
//===----------------------------------------------------------------------===//

void putU16(std::vector<uint8_t> &B, uint16_t V);
void putU32(std::vector<uint8_t> &B, uint32_t V);
void putU64(std::vector<uint8_t> &B, uint64_t V);
void putStr(std::vector<uint8_t> &B, const std::string &S);
void putValue(std::vector<uint8_t> &B, const service::Value &V);

std::vector<uint8_t> encodePreamble();

/// Header + payload as one contiguous wire buffer.
std::vector<uint8_t> encodeFrame(FrameType T, uint64_t Tag,
                                 const std::vector<uint8_t> &Payload);

std::vector<uint8_t> encodeSubmit(uint64_t Tag, const SubmitBody &B);
std::vector<uint8_t> encodeCall(uint64_t Tag, const SubmitBody &B);
std::vector<uint8_t> encodeInvalidate(uint64_t Tag, const std::string &Fn);
std::vector<uint8_t> encodeStats(uint64_t Tag);
std::vector<uint8_t> encodePing(uint64_t Tag);
std::vector<uint8_t> encodeResult(uint64_t Tag, int32_t V);
std::vector<uint8_t> encodeError(uint64_t Tag, uint16_t Code,
                                 uint32_t RetryAfterUs,
                                 const std::string &Message);
std::vector<uint8_t> encodeStatsReply(uint64_t Tag, const StatsPairs &Pairs);
std::vector<uint8_t> encodeInvalidateReply(uint64_t Tag, uint64_t Dropped);
std::vector<uint8_t> encodePong(uint64_t Tag);

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

enum class PreambleStatus { Ok, BadMagic, BadVersion };
PreambleStatus decodePreamble(const uint8_t *B, size_t N);

/// Payload decoders: true on success with the payload fully consumed;
/// false on any malformation (short buffer, trailing garbage, limit
/// breach, bad tag byte). They never throw and never read past the
/// payload.
bool decodeSubmit(const Frame &F, SubmitBody &Out); ///< Submit and Call
bool decodeInvalidate(const Frame &F, std::string &Fn);
bool decodeResult(const Frame &F, int32_t &V);
bool decodeError(const Frame &F, ErrorBody &Out);
bool decodeStatsReply(const Frame &F, StatsPairs &Out);
bool decodeInvalidateReply(const Frame &F, uint64_t &Dropped);

/// Incremental frame decoder over a byte stream. Both endpoints own one
/// per connection; the server's read loop feeds whatever recv()
/// returned and drains every complete frame before the next read — the
/// socket-read batching that lands pipelined same-key requests in one
/// worker batch.
class FrameReader {
public:
  explicit FrameReader(uint32_t MaxFrameBytes = DefaultMaxFrameBytes)
      : MaxBytes(MaxFrameBytes) {}

  enum class Status {
    NeedMore, ///< no complete frame buffered
    Ready,    ///< one frame popped into Out
    TooLarge, ///< length prefix exceeds the frame ceiling; the stream
              ///< cannot be resynchronized and must be closed
  };

  void feed(const uint8_t *Data, size_t N) {
    Buf.insert(Buf.end(), Data, Data + N);
  }

  Status next(Frame &Out);

  /// Bytes of an incomplete frame still buffered (EOF mid-frame
  /// diagnostics).
  size_t pendingBytes() const { return Buf.size() - Pos; }

  /// Tag of the oversized frame header (valid after TooLarge).
  uint64_t offendingTag() const { return BadTag; }

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0; ///< consumed prefix; compacted lazily
  uint32_t MaxBytes;
  uint64_t BadTag = 0;
};

} // namespace net
} // namespace fab

#endif // FAB_NET_WIRE_H
