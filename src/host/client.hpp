// Host-side client runtime for the fleet protocol.
//
// `FleetClient` is the typed driver a lab script (or the load bench)
// uses: it builds request frames into reused buffers, moves them over a
// `ByteLink`, decodes responses and retries around transport loss with
// the same bounded-backoff discipline the chip serial stacks use
// (`dnachip::RetryPolicy`, simulated backoff — never slept). Sequence
// numbers are frozen per logical command across retries, which is what
// lets the server's replay cache make mutating commands idempotent: a
// retry of an applied-but-unacknowledged create/start/drain returns the
// cached response instead of re-executing. Every request carries
// kProtocolVersion, the one version the server speaks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "dnachip/serial.hpp"
#include "host/fleet_server.hpp"
#include "host/protocol.hpp"
#include "obs/metrics.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {

/// Request/response byte transport. `roundtrip` returns false when the
/// exchange was lost (request or response dropped) — the client retries.
/// The bool is transport truth (delivered or not), not an error channel:
/// every protocol-level failure rides inside the response frame as a
/// typed `HostStatus`, which is why lint rule 7 grants this one API a
/// `lint:allow-bool` exemption.
class ByteLink {
 public:
  virtual ~ByteLink() = default;
  virtual bool roundtrip(  // lint:allow-bool
      const std::vector<std::uint8_t>& request,
      std::vector<std::uint8_t>& response) = 0;
};

/// In-process loopback to a `FleetServer` — the lossless transport.
class ServerLink final : public ByteLink {
 public:
  explicit ServerLink(FleetServer& server) : server_(&server) {}
  bool roundtrip(  // lint:allow-bool
      const std::vector<std::uint8_t>& request,
      std::vector<std::uint8_t>& response) override {
    server_->handle(request.data(), request.size(), response);
    return true;
  }

 private:
  FleetServer* server_;
};

/// Fault-injecting wrapper for tests: drops requests (server never sees
/// them), drops responses (server *did* execute — the idempotency case)
/// or corrupts a request byte (server answers kBadCrc). Deterministic for
/// a given seed.
class LossyLink final : public ByteLink {
 public:
  LossyLink(ByteLink& inner, Rng rng, double drop_request_prob,
            double drop_response_prob, double corrupt_prob)
      : inner_(&inner),
        rng_(rng),
        drop_request_(drop_request_prob),
        drop_response_(drop_response_prob),
        corrupt_(corrupt_prob) {}

  bool roundtrip(  // lint:allow-bool
      const std::vector<std::uint8_t>& request,
      std::vector<std::uint8_t>& response) override;

  std::uint64_t drops() const { return drops_; }
  std::uint64_t corruptions() const { return corruptions_; }

 private:
  ByteLink* inner_;
  Rng rng_;
  double drop_request_;
  double drop_response_;
  double corrupt_;
  std::uint64_t drops_ = 0;
  std::uint64_t corruptions_ = 0;
  std::vector<std::uint8_t> scratch_;
};

/// Client-side transport accounting.
struct ClientStats {
  std::uint64_t commands = 0;   // logical commands issued
  std::uint64_t attempts = 0;   // wire attempts including first tries
  std::uint64_t retries = 0;    // attempts beyond the first
  double backoff_s = 0.0;       // cumulative simulated backoff
};

class FleetClient {
 public:
  struct ProtocolInfo {
    std::uint8_t version = 0;
    std::uint8_t header_size = 0;
    std::uint16_t max_payload = 0;
    std::uint16_t commands = 0;
  };

  struct SessionSpec {
    std::uint32_t id = 0;
    core::ChipKind kind = core::ChipKind::kNeuro;
    std::uint16_t rows = 8;
    std::uint16_t cols = 8;
    std::uint64_t seed = 1;
    std::uint16_t pool_frames = 4;
    std::uint16_t ring_depth = 32;
    std::uint8_t fault_preset = 0;  // 0 = fault-free
  };

  struct Record {
    std::uint32_t index = 0;
    std::uint64_t payload = 0;
  };

  struct PollResult {
    std::uint16_t returned = 0;
    bool backpressure = false;
  };

  struct DrainSummary {
    std::uint32_t frames = 0;
    std::uint64_t digest = 0;
    std::uint64_t lost_words = 0;
    std::uint64_t retries = 0;
    double backoff_s = 0.0;
  };

  struct CheckpointInfo {
    std::uint32_t size = 0;     // serialized snapshot bytes
    std::uint64_t digest = 0;   // FNV-1a over the snapshot bytes
  };

  struct RestoreInfo {
    std::uint32_t frames_produced = 0;  // progress at the checkpoint
    std::uint64_t digest = 0;           // session record digest so far
  };

  struct SessionInfo {
    core::ChipKind kind = core::ChipKind::kNeuro;
    std::uint32_t pending = 0;
    std::uint32_t frames_produced = 0;
    std::uint64_t records_polled = 0;
    std::uint16_t ring_depth = 0;
    std::uint64_t ring_pushes = 0;
    std::uint64_t ring_pops = 0;
    std::uint64_t ring_push_stalls = 0;
    std::uint64_t lost_words = 0;
    std::uint64_t retries = 0;
    std::uint64_t wire_errors = 0;
  };

  /// Live health summary: one fixed-shape response a monitor polls
  /// cheaply — progress, flow control, link quality, last outcome and
  /// flight-recorder occupancy in a single round trip.
  struct HealthInfo {
    core::ChipKind kind = core::ChipKind::kNeuro;
    HostCommand last_command = HostCommand::kPing;
    HostStatus last_status = HostStatus::kOk;
    std::uint32_t pending = 0;
    std::uint32_t frames_produced = 0;
    std::uint16_t ring_size = 0;
    std::uint16_t ring_capacity = 0;
    std::uint16_t pool_frames = 0;
    std::uint64_t records_polled = 0;
    std::uint64_t commands_handled = 0;
    std::uint64_t retries = 0;
    std::uint64_t lost_words = 0;
    std::uint64_t wire_errors = 0;
    std::uint64_t ring_push_stalls = 0;
    std::uint64_t flight_recorded = 0;
    std::uint64_t flight_dropped = 0;
    double backoff_s = 0.0;
  };

  /// Flight-recorder dump receipt.
  struct FlightDumpInfo {
    std::uint32_t events = 0;       // retained in the ring at dump time
    std::uint64_t recorded = 0;     // lifetime events recorded
    std::uint64_t dropped = 0;      // lifetime events lost to wrap-around
    std::string path;               // artifact path on the server host
  };

  explicit FleetClient(ByteLink& link, dnachip::RetryPolicy retry = {});

  Result<ProtocolInfo, HostStatus> protocol_info();
  Result<std::uint32_t, HostStatus> capabilities();
  /// Echo check: sends `payload`, errors with kInternal on a mismatched
  /// echo (which would indicate response corruption past the CRC — never
  /// expected).
  Result<void, HostStatus> ping(const std::uint8_t* payload, std::size_t n);
  Result<void, HostStatus> create(const SessionSpec& spec);
  Result<void, HostStatus> configure(std::uint32_t id, std::uint8_t param,
                                     std::uint64_t value);
  /// Returns the session's queued backlog after the start.
  Result<std::uint32_t, HostStatus> start(std::uint32_t id,
                                          std::uint32_t frames);
  /// Appends up to `max_records` records to `out` (capacity reuse is the
  /// caller's — `out` is appended to, not cleared).
  Result<PollResult, HostStatus> poll(std::uint32_t id,
                                      std::uint16_t max_records,
                                      std::vector<Record>& out);
  Result<DrainSummary, HostStatus> drain(std::uint32_t id);
  Result<void, HostStatus> destroy(std::uint32_t id);
  Result<SessionInfo, HostStatus> query(std::uint32_t id);
  /// Snapshots the session server-side. The checkpoint persists in
  /// server memory and, when the server runs with a checkpoint directory,
  /// crash-safely on disk.
  Result<CheckpointInfo, HostStatus> checkpoint(std::uint32_t id);
  /// Rebuilds a checkpointed session — on this server or on a fresh
  /// one pointed at the same checkpoint directory (dead-worker recovery).
  Result<RestoreInfo, HostStatus> restore(std::uint32_t id);
  /// Polls one session's health summary (needs server telemetry on).
  Result<HealthInfo, HostStatus> session_health(std::uint32_t id);
  /// Fetches and decodes the server's full metrics-registry snapshot,
  /// transparently chunking across as many frames as it takes.
  Result<obs::MetricsSnapshot, HostStatus> metrics();
  /// Dumps a session's flight-recorder ring — or the server-wide
  /// ring when `id` is kServerFlightScope — as a Chrome-trace artifact.
  Result<FlightDumpInfo, HostStatus> dump_flight_recorder(std::uint32_t id);

  const ClientStats& stats() const { return stats_; }
  /// FNV-1a digest over every response frame's bytes, folded in command
  /// order — the bitwise-determinism witness the fleet bench compares
  /// across worker counts. Wire-level retries do not perturb it: only the
  /// final (accepted) response of each logical command is folded.
  std::uint64_t response_digest() const { return response_digest_; }

 private:
  /// One logical command: payload already built in `request_` behind the
  /// header placeholder. Handles retry; on success
  /// the response payload is view-accessible via `reply_*`.
  HostStatus transact(HostCommand command);
  /// Starts a request: clears `request_`, reserves the header, returns a
  /// writer for the payload.
  snapshot::StateWriter begin_request();

  ByteLink* link_;
  dnachip::RetryPolicy retry_;
  std::uint16_t seq_ = 0;
  ClientStats stats_{};
  std::uint64_t response_digest_;
  std::vector<std::uint8_t> request_;
  std::vector<std::uint8_t> response_;
  const std::uint8_t* reply_payload_ = nullptr;
  std::size_t reply_len_ = 0;
};

}  // namespace biosense::host
