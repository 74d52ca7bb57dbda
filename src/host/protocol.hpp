// Host-command wire protocol (DESIGN.md §12).
//
// The fleet server speaks a compact binary request/response protocol
// modeled on embedded-controller host-command interfaces: every frame is a
// fixed 12-byte little-endian header followed by a bounded payload, CRC-8
// protected end to end with the same polynomial the dnachip serial link
// uses (crc8, poly 0x07). Requests and responses share the frame shape —
// a response echoes the request's command id and sequence number and
// carries the outcome in the `status` field.
//
//   offset  size  field
//        0     1  magic        0xB5
//        1     1  version      kProtocolVersion
//        2     2  command      command id (HostCommand)
//        4     2  seq          client-chosen sequence number, echoed back
//        6     2  status       HostStatus (0 in requests)
//        8     2  payload_len  bytes following the header (<= kMaxPayload)
//       10     1  reserved     0
//       11     1  crc          CRC-8 over header (crc byte zeroed) + payload
//
// One version: the server speaks kProtocolVersion only and answers any
// other version byte with kBadVersion and an empty payload; the reply
// header's version byte names the version it speaks. The command table is
// fixed: there is no discovery, and an id it does not hold (0x01 and 0x02
// included, the retired discovery commands) is kUnknownCommand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace biosense::host {

inline constexpr std::uint8_t kFrameMagic = 0xB5;
inline constexpr std::uint8_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::size_t kMaxPayload = 1024;
/// Records one kPollFrames response returns at most: [count u16,
/// backpressure u8] plus 12 bytes per record must fit one frame.
inline constexpr std::uint16_t kMaxPollRecords = 64;
static_assert(3 + 12 * std::size_t{kMaxPollRecords} <= kMaxPayload,
              "a full poll response must fit one frame");

/// Command ids. 0x0x = liveness, 0x1x = session lifecycle, 0x2x =
/// server-wide.
enum class HostCommand : std::uint16_t {
  kPing = 0x03,              // echoes payload (<= 64 bytes)
  kCreateSession = 0x10,     // mutating; payload: CreateSessionRequest
  kConfigureSession = 0x11,  // mutating; [session u32, param u8, value u64]
  kStartAcquisition = 0x12,  // mutating; [session u32, frames u32]
  kPollFrames = 0x13,        // [session u32, max_records u16]
  kDrainSession = 0x14,      // mutating; [session u32]
  kDestroySession = 0x15,    // mutating; [session u32]
  kQuerySession = 0x16,      // [session u32]
  kCheckpointSession = 0x17, // mutating; [session u32] -> [size u32, digest u64]
  kRestoreSession = 0x18,    // mutating; [session u32] -> [frames u32, digest u64]
  kGetSessionHealth = 0x19,  // [session u32] -> health summary
  kServerStats = 0x20,       // server-wide occupancy counters
  kGetMetrics = 0x21,        // [offset u32, max u16] -> snapshot chunk
  kDumpFlightRecorder = 0x22,// mutating; [session u32] -> dump receipt
};

/// Typed outcome of a command, carried in every response header.
enum class HostStatus : std::uint16_t {
  kOk = 0,
  kBadMagic = 1,         // not a protocol frame at all
  kBadVersion = 2,       // version byte is not kProtocolVersion
  kBadCrc = 3,           // checksum rejected the frame
  kTruncated = 4,        // fewer bytes than the header promises
  kOversized = 5,        // payload_len > kMaxPayload
  kUnknownCommand = 6,   // command id not in the registry
  kBadPayload = 7,       // payload shape violates the command's schema
  kNoSuchSession = 8,    // session id not found (or already destroyed)
  kDuplicateSession = 9, // create with an id that is already live
  kBadState = 10,        // command illegal in the session's current state
  kSessionLimit = 11,    // admission control rejected the session
  kBackpressure = 12,    // resources exhausted right now; retry after drain
  kFault = 13,           // active fault plan defeated the operation
  kInternal = 14,        // server-side invariant failure (never expected)
};

/// Stable diagnostic names ("ok", "bad_crc", ...) / ("ping", ...).
const char* host_status_name(HostStatus status);
const char* host_command_name(HostCommand command);

/// kDumpFlightRecorder session-id sentinel addressing the server-wide
/// event ring instead of a session's (no valid session can use it: create
/// ids are arbitrary u32, but the server refuses this one at create).
inline constexpr std::uint32_t kServerFlightScope = 0xffffffffu;

/// Parsed frame header (byte-order already folded out).
struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  HostCommand command = HostCommand::kPing;
  std::uint16_t seq = 0;
  HostStatus status = HostStatus::kOk;
  std::uint16_t payload_len = 0;
};

/// A decoded frame: header plus a view into the payload bytes of the
/// buffer handed to `decode_frame` (valid only while that buffer lives).
struct DecodedFrame {
  FrameHeader header{};
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
};

/// Serializes header + payload into `out` (cleared, capacity retained) and
/// stamps the CRC. Payload may be empty. Throws ConfigError when the
/// payload exceeds kMaxPayload — producing an unsendable frame is a bug.
void encode_frame(const FrameHeader& header, const std::uint8_t* payload,
                  std::size_t payload_len, std::vector<std::uint8_t>& out);

/// In-place finalizer for the allocation-free dispatch path: `frame` holds
/// a kHeaderSize placeholder followed by the already-built payload (a
/// snapshot::StateWriter constructed over the placeholder builds it).
/// Stamps the header fields, payload length and CRC. Throws ConfigError
/// when the payload exceeds kMaxPayload: writers do not check per field,
/// so this (and encode_frame) is where a payload's size is bounded.
void finalize_frame(const FrameHeader& header, std::vector<std::uint8_t>& frame);

/// Reads the header fields of `bytes` (at least kHeaderSize of them)
/// without validating anything — the magic byte is skipped, the CRC byte
/// ignored. `decode_frame` parses with it, and the dispatcher uses it to
/// echo the legible fields of a frame that failed to decode.
FrameHeader read_header(const std::uint8_t* bytes);

/// Validates magic, size, length and CRC. The error is precisely the
/// status a server should answer with (kBadMagic/kTruncated/kOversized/
/// kBadCrc). Version acceptance is left to the dispatcher — a frame with
/// a foreign version byte still decodes (the header layout does not
/// depend on it) so the server can answer kBadVersion.
Result<DecodedFrame, HostStatus> decode_frame(const std::uint8_t* bytes,
                                              std::size_t n);

}  // namespace biosense::host
