#include "host/client.hpp"

#include <cstring>
#include <utility>

#include "common/hash.hpp"
#include "obs/wire.hpp"

namespace biosense::host {

using snapshot::StateReader;
using snapshot::StateWriter;

namespace {

/// Wire-level statuses the client treats as transient: the *request* was
/// damaged in flight, so a retry of the same bytes can succeed. All other
/// statuses are deterministic answers and retrying would not change them.
bool transient_status(HostStatus status) {
  return status == HostStatus::kBadCrc || status == HostStatus::kTruncated ||
         status == HostStatus::kBadMagic;
}

}  // namespace

bool LossyLink::roundtrip(const std::vector<std::uint8_t>& request,
                          std::vector<std::uint8_t>& response) {
  if (rng_.uniform() < drop_request_) {
    ++drops_;
    return false;
  }
  if (corrupt_ > 0.0 && rng_.uniform() < corrupt_ && !request.empty()) {
    ++corruptions_;
    scratch_ = request;
    const auto byte = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(scratch_.size()) - 1));
    const auto bit = static_cast<unsigned>(rng_.uniform_int(0, 7));
    scratch_[byte] ^= static_cast<std::uint8_t>(1u << bit);
    if (!inner_->roundtrip(scratch_, response)) return false;
  } else if (!inner_->roundtrip(request, response)) {
    return false;
  }
  if (rng_.uniform() < drop_response_) {
    ++drops_;
    return false;
  }
  return true;
}

FleetClient::FleetClient(ByteLink& link, dnachip::RetryPolicy retry)
    : link_(&link),
      retry_(retry),
      response_digest_(kFnv1aOffset) {
  request_.reserve(kHeaderSize + kMaxPayload);
  response_.reserve(kHeaderSize + kMaxPayload);
}

StateWriter FleetClient::begin_request() {
  request_.clear();
  request_.resize(kHeaderSize);
  return StateWriter(request_);
}

HostStatus FleetClient::transact(HostCommand command) {
  ++stats_.commands;
  const std::uint16_t seq = seq_++;

  for (int attempt = 1;; ++attempt) {
    FrameHeader header;
    header.command = command;
    header.seq = seq;
    finalize_frame(header, request_);
    ++stats_.attempts;
    if (attempt > 1) ++stats_.retries;

    HostStatus status = HostStatus::kTruncated;  // placeholder: "no reply"
    bool delivered = link_->roundtrip(request_, response_);
    if (delivered) {
      const auto decoded = decode_frame(response_.data(), response_.size());
      if (decoded && decoded->header.seq == seq) {
        status = decoded->header.status;
        if (!transient_status(status)) {
          // A deterministic answer (kOk or a typed error). Fold the
          // accepted response into the determinism digest and finish.
          response_digest_ =
              fnv1a(response_digest_, response_.data(), response_.size());
          reply_payload_ = decoded->payload;
          reply_len_ = decoded->payload_len;
          return status;
        }
      }
      // Undecodable reply, foreign seq, or the server saw a damaged
      // request: treat as a lost exchange and retry.
    }
    if (attempt >= retry_.max_attempts) {
      reply_payload_ = nullptr;
      reply_len_ = 0;
      return delivered ? HostStatus::kBadCrc : HostStatus::kTruncated;
    }
    stats_.backoff_s += dnachip::retry_backoff(retry_, attempt);
  }
}

Result<FleetClient::ProtocolInfo, HostStatus> FleetClient::protocol_info() {
  using R = Result<ProtocolInfo, HostStatus>;
  begin_request();
  const auto status = transact(HostCommand::kGetProtocolInfo);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  ProtocolInfo info;
  info.version = reader.u8();
  info.header_size = reader.u8();
  info.max_payload = reader.u16();
  info.commands = reader.u16();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return info;
}

Result<std::uint32_t, HostStatus> FleetClient::capabilities() {
  using R = Result<std::uint32_t, HostStatus>;
  begin_request();
  const auto status = transact(HostCommand::kGetCapabilities);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  const auto caps = reader.u32();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return caps;
}

Result<void, HostStatus> FleetClient::ping(const std::uint8_t* payload,
                                           std::size_t n) {
  using R = Result<void, HostStatus>;
  begin_request().raw(payload, n);
  const auto status = transact(HostCommand::kPing);
  if (status != HostStatus::kOk) return R::err(status);
  if (reply_len_ != n ||
      (n > 0 && std::memcmp(reply_payload_, payload, n) != 0)) {
    return R::err(HostStatus::kInternal);
  }
  return {};
}

Result<void, HostStatus> FleetClient::create(const SessionSpec& spec) {
  using R = Result<void, HostStatus>;
  auto writer = begin_request();
  writer.u32(spec.id);
  writer.u8(static_cast<std::uint8_t>(spec.kind));
  writer.u16(spec.rows);
  writer.u16(spec.cols);
  writer.u64(spec.seed);
  writer.u16(spec.pool_frames);
  writer.u16(spec.ring_depth);
  writer.u8(spec.fault_preset);
  const auto status = transact(HostCommand::kCreateSession);
  if (status != HostStatus::kOk) return R::err(status);
  return {};
}

Result<void, HostStatus> FleetClient::configure(std::uint32_t id,
                                                std::uint8_t param,
                                                std::uint64_t value) {
  using R = Result<void, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  writer.u8(param);
  writer.u64(value);
  const auto status = transact(HostCommand::kConfigureSession);
  if (status != HostStatus::kOk) return R::err(status);
  return {};
}

Result<std::uint32_t, HostStatus> FleetClient::start(std::uint32_t id,
                                                     std::uint32_t frames) {
  using R = Result<std::uint32_t, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  writer.u32(frames);
  const auto status = transact(HostCommand::kStartAcquisition);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  const auto pending = reader.u32();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return pending;
}

Result<FleetClient::PollResult, HostStatus> FleetClient::poll(
    std::uint32_t id, std::uint16_t max_records, std::vector<Record>& out) {
  using R = Result<PollResult, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  writer.u16(max_records);
  const auto status = transact(HostCommand::kPollFrames);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  PollResult result;
  result.returned = reader.u16();
  result.backpressure = reader.u8() != 0;
  for (std::uint16_t i = 0; i < result.returned && reader.ok(); ++i) {
    Record record;
    record.index = reader.u32();
    record.payload = reader.u64();
    out.push_back(record);
  }
  if (!reader.exhausted()) return R::err(HostStatus::kBadPayload);
  return result;
}

Result<FleetClient::DrainSummary, HostStatus> FleetClient::drain(
    std::uint32_t id) {
  using R = Result<DrainSummary, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kDrainSession);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  DrainSummary summary;
  summary.frames = reader.u32();
  summary.digest = reader.u64();
  summary.lost_words = reader.u64();
  summary.retries = reader.u64();
  const auto backoff_bits = reader.u64();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  std::memcpy(&summary.backoff_s, &backoff_bits, sizeof(summary.backoff_s));
  return summary;
}

Result<FleetClient::SessionInfo, HostStatus> FleetClient::query(
    std::uint32_t id) {
  using R = Result<SessionInfo, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kQuerySession);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  SessionInfo info;
  info.kind = reader.u8() == 0 ? core::ChipKind::kNeuro : core::ChipKind::kDna;
  info.pending = reader.u32();
  info.frames_produced = reader.u32();
  info.records_polled = reader.u64();
  info.ring_depth = reader.u16();
  info.ring_pushes = reader.u64();
  info.ring_pops = reader.u64();
  info.ring_push_stalls = reader.u64();
  info.lost_words = reader.u64();
  info.retries = reader.u64();
  info.wire_errors = reader.u64();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return info;
}

Result<FleetClient::CheckpointInfo, HostStatus> FleetClient::checkpoint(
    std::uint32_t id) {
  using R = Result<CheckpointInfo, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kCheckpointSession);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  CheckpointInfo info;
  info.size = reader.u32();
  info.digest = reader.u64();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return info;
}

Result<FleetClient::RestoreInfo, HostStatus> FleetClient::restore(
    std::uint32_t id) {
  using R = Result<RestoreInfo, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kRestoreSession);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  RestoreInfo info;
  info.frames_produced = reader.u32();
  info.digest = reader.u64();
  if (!reader.ok()) return R::err(HostStatus::kBadPayload);
  return info;
}

Result<FleetClient::HealthInfo, HostStatus> FleetClient::session_health(
    std::uint32_t id) {
  using R = Result<HealthInfo, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kGetSessionHealth);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  HealthInfo info;
  info.kind = reader.u8() == 0 ? core::ChipKind::kNeuro : core::ChipKind::kDna;
  info.last_command = static_cast<HostCommand>(reader.u16());
  info.last_status = static_cast<HostStatus>(reader.u16());
  info.pending = reader.u32();
  info.frames_produced = reader.u32();
  info.ring_size = reader.u16();
  info.ring_capacity = reader.u16();
  info.pool_frames = reader.u16();
  info.records_polled = reader.u64();
  info.commands_handled = reader.u64();
  info.retries = reader.u64();
  info.lost_words = reader.u64();
  info.wire_errors = reader.u64();
  info.ring_push_stalls = reader.u64();
  info.flight_recorded = reader.u64();
  info.flight_dropped = reader.u64();
  const auto backoff_bits = reader.u64();
  if (!reader.exhausted()) return R::err(HostStatus::kBadPayload);
  std::memcpy(&info.backoff_s, &backoff_bits, sizeof(info.backoff_s));
  return info;
}

Result<obs::MetricsSnapshot, HostStatus> FleetClient::metrics() {
  using R = Result<obs::MetricsSnapshot, HostStatus>;
  // Chunked fetch: offset 0 makes the server snapshot-and-cache, later
  // offsets page through the cached encoding of that one snapshot.
  std::vector<std::uint8_t> wire;
  std::uint32_t offset = 0;
  for (;;) {
    auto writer = begin_request();
    writer.u32(offset);
    writer.u16(static_cast<std::uint16_t>(kMaxPayload));
    const auto status = transact(HostCommand::kGetMetrics);
    if (status != HostStatus::kOk) return R::err(status);
    StateReader reader(reply_payload_, reply_len_);
    const std::uint32_t total = reader.u32();
    const std::uint32_t echo_offset = reader.u32();
    if (!reader.ok() || echo_offset != offset) {
      return R::err(HostStatus::kBadPayload);
    }
    const std::size_t chunk = reader.remaining();
    wire.insert(wire.end(), reply_payload_ + 8, reply_payload_ + 8 + chunk);
    offset += static_cast<std::uint32_t>(chunk);
    if (offset > total || (chunk == 0 && offset < total)) {
      return R::err(HostStatus::kBadPayload);
    }
    if (offset == total) break;
  }
  auto decoded = obs::decode_snapshot(wire.data(), wire.size());
  // The frame CRC already vouched for transport integrity, so a snapshot
  // that fails its own validation is a server-side encoding bug.
  if (!decoded) return R::err(HostStatus::kInternal);
  return std::move(decoded.value());
}

Result<FleetClient::FlightDumpInfo, HostStatus>
FleetClient::dump_flight_recorder(std::uint32_t id) {
  using R = Result<FlightDumpInfo, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kDumpFlightRecorder);
  if (status != HostStatus::kOk) return R::err(status);
  StateReader reader(reply_payload_, reply_len_);
  FlightDumpInfo info;
  info.events = reader.u32();
  info.recorded = reader.u64();
  info.dropped = reader.u64();
  reader.str(info.path, kMaxPayload);
  if (!reader.exhausted()) return R::err(HostStatus::kBadPayload);
  return info;
}

Result<void, HostStatus> FleetClient::destroy(std::uint32_t id) {
  using R = Result<void, HostStatus>;
  auto writer = begin_request();
  writer.u32(id);
  const auto status = transact(HostCommand::kDestroySession);
  if (status != HostStatus::kOk) return R::err(status);
  return {};
}

}  // namespace biosense::host
