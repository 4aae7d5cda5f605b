// The cnet wire protocol: compact binary frames carrying count() /
// count_until() over a byte stream (docs/SERVICE.md is the normative spec).
//
// Every frame is length-prefixed and little-endian:
//
//   request   u32 body_len | u8 version | u8 op | u16 flags
//             u64 request_id | u64 deadline_ns
//   response  u32 body_len | u8 version | u8 status | u16 error
//             u64 request_id | u64 value
//
// body_len counts the bytes after the prefix (20 for every v1 frame; the
// prefix exists so later versions can grow the body without breaking
// framing). request_id is an opaque client token echoed verbatim — the
// server may complete requests out of order (plain counts are batched,
// deadline counts resolve at their own pace), so clients match on it.
// deadline_ns is the operation's time budget in nanoseconds, measured from
// server receipt (clocks are not assumed shared): 0 on kCount, > 0 on
// kCountUntil. A kCountUntil whose budget is already spent — or 0, a
// deadline in the past — is a protocol error, not a timeout.
//
// Decoding is incremental and allocation-free: try_decode_* reads from a
// caller-owned byte window and reports kNeedMore until a whole frame is
// present, so a connection buffer can be drained frame-by-frame. Malformed
// input (oversized body_len, unknown version/op, nonzero flags, zero
// deadline) comes back as kMalformed with a WireError the server echoes in
// a final error response before dropping the connection.
#pragma once

#include <cstdint>
#include <vector>

namespace cnet::svc {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// v1 frame body: version/op/flags + id + deadline (or value) = 20 bytes.
inline constexpr std::uint32_t kFrameBodyLen = 20;
/// Framing sanity bound: a body_len beyond this is not a future version,
/// it is garbage (or an attack) — the connection is dropped.
inline constexpr std::uint32_t kMaxBodyLen = 256;
/// Bytes of one encoded v1 frame on the wire.
inline constexpr std::size_t kFrameWireSize = 4 + kFrameBodyLen;

/// Request operations.
enum class Op : std::uint8_t {
  kCount = 1,       ///< one counting operation; deadline_ns must be 0
  kCountUntil = 2,  ///< deadline-bounded count; deadline_ns is the budget
};

/// Response statuses.
enum class Status : std::uint8_t {
  kOk = 0,       ///< value holds the counter value
  kTimeout = 1,  ///< the deadline fired; the op was abandoned (mp) and its
                 ///< value parked for recycling
  kShed = 2,     ///< admission control refused the request (backpressure or
                 ///< a tripped Cor 3.9 timing condition); retry later
  kError = 3,    ///< protocol error; the connection is being dropped
};

/// Why a frame (or request) was rejected; carried in the `error` field of a
/// kError/kShed response.
enum class WireError : std::uint16_t {
  kNone = 0,
  kOversizedFrame = 1,   ///< body_len > kMaxBodyLen
  kBadVersion = 2,       ///< version != kProtocolVersion
  kBadOp = 3,            ///< unknown Op
  kBadFlags = 4,         ///< nonzero flags (reserved in v1)
  kBadDeadline = 5,      ///< kCountUntil with a zero (already passed) budget,
                         ///< or kCount with a nonzero one
  kBacklogShed = 6,      ///< admission control: pending backlog over the cap
  kTimingShed = 7,       ///< admission control: Cor 3.9 condition tripped
  kOverloadedConn = 8,   ///< reserved, never sent: a connection whose write
                         ///< buffer outgrows the cap is closed without a
                         ///< frame (svc/server.h)
};

const char* wire_error_name(WireError error);

struct Request {
  Op op = Op::kCount;
  std::uint64_t request_id = 0;
  std::uint64_t deadline_ns = 0;  ///< kCountUntil: budget from server receipt
};

struct Response {
  Status status = Status::kOk;
  WireError error = WireError::kNone;
  std::uint64_t request_id = 0;
  std::uint64_t value = 0;
};

/// Incremental decode outcome.
enum class DecodeResult : std::uint8_t {
  kFrame,      ///< one frame decoded; *consumed bytes were eaten
  kNeedMore,   ///< the window holds only a frame prefix; feed more bytes
  kMalformed,  ///< protocol violation; *error says which. Drop the stream.
};

/// Appends one encoded request to `out` (which may already hold frames —
/// pipelining is the intended use).
void encode_request(const Request& request, std::vector<std::uint8_t>* out);
void encode_response(const Response& response, std::vector<std::uint8_t>* out);

/// Decodes the first frame of window [data, data+size). On kFrame sets
/// *out and *consumed; on kMalformed sets *error (and *consumed to the
/// bytes that may be discarded — the stream is unusable anyway). Performs
/// no allocation. Validation: framing first (body_len), then version, op,
/// flags, and the op/deadline combination.
DecodeResult try_decode_request(const std::uint8_t* data, std::size_t size, Request* out,
                                std::size_t* consumed, WireError* error);

/// Response-side twin (used by clients); status and error fields are
/// range-checked the same way.
DecodeResult try_decode_response(const std::uint8_t* data, std::size_t size, Response* out,
                                 std::size_t* consumed, WireError* error);

}  // namespace cnet::svc
