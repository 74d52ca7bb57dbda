#include "host/protocol.hpp"

#include "common/crc.hpp"
#include "common/error.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {

const char* host_status_name(HostStatus status) {
  switch (status) {
    case HostStatus::kOk: return "ok";
    case HostStatus::kBadMagic: return "bad_magic";
    case HostStatus::kBadVersion: return "bad_version";
    case HostStatus::kBadCrc: return "bad_crc";
    case HostStatus::kTruncated: return "truncated";
    case HostStatus::kOversized: return "oversized";
    case HostStatus::kUnknownCommand: return "unknown_command";
    case HostStatus::kBadPayload: return "bad_payload";
    case HostStatus::kNoSuchSession: return "no_such_session";
    case HostStatus::kDuplicateSession: return "duplicate_session";
    case HostStatus::kBadState: return "bad_state";
    case HostStatus::kSessionLimit: return "session_limit";
    case HostStatus::kBackpressure: return "backpressure";
    case HostStatus::kFault: return "fault";
    case HostStatus::kInternal: return "internal";
  }
  return "unknown";
}

const char* host_command_name(HostCommand command) {
  switch (command) {
    case HostCommand::kGetProtocolInfo: return "get_protocol_info";
    case HostCommand::kGetCapabilities: return "get_capabilities";
    case HostCommand::kPing: return "ping";
    case HostCommand::kCreateSession: return "create_session";
    case HostCommand::kConfigureSession: return "configure_session";
    case HostCommand::kStartAcquisition: return "start_acquisition";
    case HostCommand::kPollFrames: return "poll_frames";
    case HostCommand::kDrainSession: return "drain_session";
    case HostCommand::kDestroySession: return "destroy_session";
    case HostCommand::kQuerySession: return "query_session";
    case HostCommand::kCheckpointSession: return "checkpoint_session";
    case HostCommand::kRestoreSession: return "restore_session";
    case HostCommand::kGetSessionHealth: return "get_session_health";
    case HostCommand::kServerStats: return "server_stats";
    case HostCommand::kGetMetrics: return "get_metrics";
    case HostCommand::kDumpFlightRecorder: return "dump_flight_recorder";
  }
  return "unknown";
}

void finalize_frame(const FrameHeader& header,
                    std::vector<std::uint8_t>& frame) {
  require(frame.size() >= kHeaderSize,
          "finalize_frame: missing header placeholder");
  const std::size_t payload_len = frame.size() - kHeaderSize;
  require(payload_len <= kMaxPayload, "finalize_frame: payload too large");
  // The four u16 fields at offsets 2..9, patched into the placeholder.
  const std::uint16_t fields[] = {
      static_cast<std::uint16_t>(header.command), header.seq,
      static_cast<std::uint16_t>(header.status),
      static_cast<std::uint16_t>(payload_len)};
  frame[0] = kFrameMagic;
  frame[1] = header.version;
  for (std::size_t i = 0; i < 4; ++i) {
    frame[2 + 2 * i] = static_cast<std::uint8_t>(fields[i]);
    frame[3 + 2 * i] = static_cast<std::uint8_t>(fields[i] >> 8);
  }
  frame[10] = 0;  // reserved
  frame[11] = crc8_zero_slot(frame.data(), frame.size(), 11);
}

void encode_frame(const FrameHeader& header, const std::uint8_t* payload,
                  std::size_t payload_len, std::vector<std::uint8_t>& out) {
  require(payload_len <= kMaxPayload, "encode_frame: payload too large");
  out.clear();
  out.resize(kHeaderSize);
  snapshot::StateWriter(out).raw(payload, payload_len);
  finalize_frame(header, out);
}

FrameHeader read_header(const std::uint8_t* bytes) {
  snapshot::StateReader r(bytes + 1, kHeaderSize - 1);  // past the magic
  FrameHeader header;
  header.version = r.u8();
  header.command = static_cast<HostCommand>(r.u16());
  header.seq = r.u16();
  header.status = static_cast<HostStatus>(r.u16());
  header.payload_len = r.u16();
  return header;
}

Result<DecodedFrame, HostStatus> decode_frame(const std::uint8_t* bytes,
                                              std::size_t n) {
  using R = Result<DecodedFrame, HostStatus>;
  if (n < kHeaderSize) return R::err(HostStatus::kTruncated);
  if (bytes[0] != kFrameMagic) return R::err(HostStatus::kBadMagic);
  DecodedFrame frame;
  frame.header = read_header(bytes);
  frame.payload_len = frame.header.payload_len;
  if (frame.payload_len > kMaxPayload) return R::err(HostStatus::kOversized);
  if (n != kHeaderSize + frame.payload_len) {
    return R::err(HostStatus::kTruncated);
  }
  if (crc8_zero_slot(bytes, n, 11) != bytes[11]) {
    return R::err(HostStatus::kBadCrc);
  }
  frame.payload = frame.payload_len > 0 ? bytes + kHeaderSize : nullptr;
  return frame;
}

}  // namespace biosense::host
