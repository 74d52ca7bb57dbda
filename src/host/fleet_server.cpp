#include "host/fleet_server.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stream.hpp"
#include "core/session_snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wire.hpp"
#include "snapshot/atomic_file.hpp"
#include "snapshot/format.hpp"
#include "snapshot/sections.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {

namespace {

/// Error-sentinel records: high bit set, low bits the ChipError code — a
/// real current/hash never collides because currents are IEEE doubles with
/// structure in the low mantissa and hashes are full-width.
inline constexpr std::uint64_t kRecordErrorBit = 0x8000000000000000ULL;

/// The fault worlds a create command can ask for (preset 0 is fault-free).
/// Deterministic per session: the plan seed derives from the session seed
/// at build time.
faults::FaultPlanConfig fault_preset(std::uint8_t preset,
                                     std::uint64_t seed) {
  faults::FaultPlanConfig plan;
  plan.seed = seed;
  switch (preset) {
    case 1:  // mildly lossy lab cable
      plan.link.bit_error_rate = 1e-4;
      plan.link.drop_prob = 0.005;
      plan.link.truncate_prob = 0.005;
      break;
    case 2:  // severe link trouble — the graceful-degradation regime
      plan.link.bit_error_rate = 1e-3;
      plan.link.drop_prob = 0.05;
      plan.link.truncate_prob = 0.05;
      plan.link.timeout_prob = 0.01;
      plan.link.burst_prob = 0.02;
      break;
    case 3:  // defective die + mild link
      plan.dna_dead_fraction = 0.05;
      plan.dna_stuck_fraction = 0.02;
      plan.neuro_dead_fraction = 0.05;
      plan.neuro_railed_fraction = 0.01;
      plan.link.bit_error_rate = 1e-4;
      break;
    default:
      break;
  }
  return plan;
}

namespace section_id = snapshot::section_id;

/// Version 3 of the counters section: progress and the neural clock moved
/// to the core meta section (version 2 still carried them).
inline constexpr std::uint16_t kCountersVersion = 3;

std::string checkpoint_name(std::uint32_t id) {
  return "s" + std::to_string(id);
}

}  // namespace

/// One live session. Guarded by `mutex`; everything below it is owned by
/// the session outright (chips, links, RNG streams), so sessions never
/// contend with each other.
struct FleetServer::Session {
  std::mutex mutex;

  std::uint32_t id = 0;
  core::ChipKind kind = core::ChipKind::kNeuro;
  // Create parameters, kept verbatim so a checkpoint can carry them and a
  // restore can rebuild the identical frozen die state by construction.
  CreateParams params;

  // Replay cache: the last successfully applied mutating command. A retry
  // (same seq + command id) returns the cached response instead of
  // re-executing, which makes session mutations idempotent under lossy
  // request/response transports.
  bool has_replay = false;
  std::uint16_t replay_seq = 0;
  HostCommand replay_command = HostCommand::kPing;
  HostStatus replay_status = HostStatus::kOk;
  std::vector<std::uint8_t> replay_payload;

  /// A retry of the cached `cmd`: echoes its response and status.
  std::optional<HostStatus> replay(const CommandContext& ctx,
                                   HostCommand cmd) const {
    if (!has_replay || replay_seq != ctx.request->header.seq ||
        replay_command != cmd) {
      return std::nullopt;
    }
    ctx.response->raw(replay_payload.data(), replay_payload.size());
    return replay_status;
  }
  /// Caches the kOk response just built for `cmd` as the replay entry.
  void remember(const CommandContext& ctx, HostCommand cmd) {
    has_replay = true;
    replay_seq = ctx.request->header.seq;
    replay_command = cmd;
    replay_status = HostStatus::kOk;
    replay_payload.assign(ctx.response->data(),
                          ctx.response->data() + ctx.response->size());
  }

  // Acquisition state.
  std::uint32_t pending = 0;           // queued, not yet produced
  std::uint32_t frames_produced = 0;   // next record index
  std::uint64_t records_polled = 0;
  std::uint64_t digest = kFnv1aOffset;  // folds every produced record
  std::uint64_t wire_errors = 0;       // error-sentinel records
  std::unique_ptr<Channel<Record>> ring;

  // Configure knobs.
  std::uint16_t gate_code = 7;         // DNA conversion gate
  double stimulus_v = 0.0;             // neuro probe amplitude, V

  // Neuro data path: each record is one frame through the session's
  // ChipSession (capture -> serialize -> link -> decode), whose pooled
  // frame and wire lane make a poll allocation-free in steady state.
  core::NeuroSession neuro{};
  double t = 0.0;
  double period = 0.0;
  core::WireStats wire_totals{};

  // DNA data path.
  core::DnaSession dna{};
  int site_index = 0;

  // Link retry effort: the neural wire's totals or the DNA interface's.
  std::uint64_t retries() const {
    return kind == core::ChipKind::kNeuro ? wire_totals.retries
                                          : dna.host->stats().retries;
  }
  double backoff_s() const {
    return kind == core::ChipKind::kNeuro ? wire_totals.backoff_s
                                          : dna.host->stats().backoff_s;
  }

  // Telemetry: post-mortem event ring + health outcome counters.
  // `flight` is null when FleetLimits::flight_events is 0; the outcome
  // counters are only maintained while telemetry is on.
  std::unique_ptr<obs::FlightRecorder> flight;
  std::uint64_t commands_handled = 0;
  std::uint16_t last_command = 0;
  std::uint16_t last_status = 0;
};

/// The session a command addresses, held locked from the handler into the
/// dispatch wrapper's outcome bookkeeping: one lookup, one lock.
struct FleetServer::SessionClaim {
  std::shared_ptr<Session> session;
  std::unique_lock<std::mutex> lock;

  /// Keeps and locks `found` (may be null); returns it.
  Session* hold(std::shared_ptr<Session> found) {
    session = std::move(found);
    if (session) lock = std::unique_lock(session->mutex);
    return session.get();
  }
};

FleetServer::FleetServer(FleetLimits limits)
    : limits_(std::move(limits)), server_flight_(limits_.server_flight_events) {
  require(limits_.max_sessions >= 1, "FleetServer: max_sessions must be >= 1");
  register_handlers();
}

FleetServer::~FleetServer() {
  if (limits_.flight_auto_dump && server_flight_.enabled()) {
    server_flight_.dump("fleet.server");
  }
}

void FleetServer::register_handlers() {
  // A session-scoped handler (payload leads with the session id) returns
  // with the session it addressed still locked in its claim, and the
  // outcome is noted under that lock — one branch while telemetry is off.
  auto add = [this](HostCommand id, std::uint16_t min_payload,
                    std::uint16_t max_payload,
                    HostStatus (FleetServer::*fn)(const CommandContext&,
                                                  SessionClaim&)) {
    CommandSpec spec;
    spec.id = id;
    spec.name = host_command_name(id);
    spec.min_payload = min_payload;
    spec.max_payload = max_payload;
    spec.handler = [this, fn](const CommandContext& ctx) {
      SessionClaim claim;
      const HostStatus status = (this->*fn)(ctx, claim);
      if (claim.session && limits_.flight_events > 0) {
        note_outcome(*claim.session, *ctx.request, status);
      }
      return status;
    };
    dispatcher_.register_command(std::move(spec));
  };

  add(HostCommand::kGetProtocolInfo, 0, 0, &FleetServer::cmd_protocol_info);
  add(HostCommand::kGetCapabilities, 0, 0, &FleetServer::cmd_capabilities);
  add(HostCommand::kPing, 0, 64, &FleetServer::cmd_ping);
  add(HostCommand::kCreateSession, 22, 22, &FleetServer::cmd_create);
  add(HostCommand::kConfigureSession, 13, 13, &FleetServer::cmd_configure);
  add(HostCommand::kStartAcquisition, 8, 8, &FleetServer::cmd_start);
  add(HostCommand::kPollFrames, 6, 6, &FleetServer::cmd_poll);
  add(HostCommand::kDrainSession, 4, 4, &FleetServer::cmd_drain);
  add(HostCommand::kDestroySession, 4, 4, &FleetServer::cmd_destroy);
  add(HostCommand::kQuerySession, 4, 4, &FleetServer::cmd_query);
  add(HostCommand::kCheckpointSession, 4, 4, &FleetServer::cmd_checkpoint);
  add(HostCommand::kRestoreSession, 4, 4, &FleetServer::cmd_restore);
  add(HostCommand::kServerStats, 0, 0, &FleetServer::cmd_server_stats);
  add(HostCommand::kGetSessionHealth, 4, 4, &FleetServer::cmd_session_health);
  add(HostCommand::kGetMetrics, 6, 6, &FleetServer::cmd_get_metrics);
  add(HostCommand::kDumpFlightRecorder, 4, 4, &FleetServer::cmd_dump_flight);
}

void FleetServer::note_outcome(Session& s, const DecodedFrame& req,
                               HostStatus status) {
  ++s.commands_handled;
  s.last_command = static_cast<std::uint16_t>(req.header.command);
  s.last_status = static_cast<std::uint16_t>(status);
  if (status != HostStatus::kOk && s.flight) {
    BIOSENSE_FLIGHT_TO("fleet.cmd_rejected", *s.flight, s.id,
                       static_cast<std::uint16_t>(req.header.command),
                       static_cast<std::uint16_t>(status));
    if (status == HostStatus::kFault && limits_.flight_auto_dump) {
      s.flight->dump("fleet.s" + std::to_string(s.id));
    }
  }
}

HostStatus FleetServer::handle(const std::uint8_t* request, std::size_t n,
                               std::vector<std::uint8_t>& response) {
  return dispatcher_.dispatch(request, n, response);
}

std::size_t FleetServer::live_sessions() const {
  std::shared_lock lock(registry_mutex_);
  return sessions_.size();
}

std::size_t FleetServer::committed_frames() const {
  std::shared_lock lock(registry_mutex_);
  return committed_frames_;
}

std::shared_ptr<FleetServer::Session> FleetServer::find_session(
    std::uint32_t id) const {
  std::shared_lock lock(registry_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<FleetServer::Session> FleetServer::build_session(
    const CreateParams& p, HostStatus& status) {
  status = HostStatus::kBadPayload;
  if (p.id == kServerFlightScope) return nullptr;  // the server ring's id
  if (p.kind > 1 || p.preset > 3) return nullptr;
  if (p.rows < 1 || p.rows > 512 || p.cols < 1 || p.cols > 512 ||
      static_cast<std::uint32_t>(p.rows) * p.cols > 16384) {
    return nullptr;
  }
  if (p.pool_frames < 1 || p.pool_frames > 64 || p.ring_depth < 1 ||
      p.ring_depth > 1024) {
    return nullptr;
  }
  const auto kind =
      p.kind == 0 ? core::ChipKind::kNeuro : core::ChipKind::kDna;
  // The neural chip's 8:1 output multiplexers need whole mux groups.
  if (kind == core::ChipKind::kNeuro && p.rows % 8 != 0) return nullptr;

  // Build through the audited construction surface. Create/restore is
  // control plane: allocations and calibration sweeps are expected here,
  // never in the poll path.
  auto session = std::make_shared<Session>();
  session->id = p.id;
  session->kind = kind;
  session->params = p;
  const std::string label =
      limits_.obs_prefix.empty()
          ? std::string{}
          : limits_.obs_prefix + ".s" + std::to_string(p.id);
  core::SessionOptions opts;
  opts.kind(kind)
      .rows(p.rows)
      .cols(p.cols)
      .chip_seed(p.seed)
      .link_seed(p.seed ^ (kind == core::ChipKind::kNeuro ? 0x11aabbULL
                                                           : 0x5eedULL))
      .pool_frames(p.pool_frames)
      .label(label);
  if (p.preset != 0) opts.fault_plan(fault_preset(p.preset, p.seed));

  try {
    if (kind == core::ChipKind::kNeuro) {
      session->neuro = opts.build_neuro();
      session->period =
          (1.0 / session->neuro.chip->config().frame_rate).value();
      session->stimulus_v = 1e-4 * static_cast<double>(p.id % 7 + 1);
    } else {
      session->dna = opts.build_dna();
    }
  } catch (const ConfigError&) {
    // A config the chip models reject (geometry, sizing) is the client's
    // problem, reported in kind — the server never dies for it.
    return nullptr;
  }
  session->ring = std::make_unique<Channel<Record>>(
      p.ring_depth, label.empty() ? std::string{} : label + ".ring");
  if (limits_.flight_events > 0) {
    session->flight =
        std::make_unique<obs::FlightRecorder>(limits_.flight_events);
  }
  status = HostStatus::kOk;
  return session;
}

// --- discovery / liveness ---------------------------------------------------

HostStatus FleetServer::cmd_protocol_info(const CommandContext& ctx,
                                          SessionClaim&) {
  auto& w = *ctx.response;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(kHeaderSize));
  w.u16(static_cast<std::uint16_t>(kMaxPayload));
  w.u16(static_cast<std::uint16_t>(dispatcher_.commands().size()));
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_capabilities(const CommandContext& ctx,
                                         SessionClaim&) {
  ctx.response->u32(kCapDnaSessions | kCapNeuroSessions | kCapFaultInjection |
                    kCapReplayCache | kCapCheckpoint | kCapTelemetry);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_ping(const CommandContext& ctx, SessionClaim&) {
  ctx.response->raw(ctx.request->payload, ctx.request->payload_len);
  return HostStatus::kOk;
}

// --- session lifecycle ------------------------------------------------------

HostStatus FleetServer::cmd_create(const CommandContext& ctx,
                                   SessionClaim& claim) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  CreateParams params;
  params.load_state(r);
  const std::uint32_t id = params.id;
  if (!r.exhausted()) {
    // Malformed, but still addressed to (and counted against) a live id.
    claim.hold(find_session(id));
    return HostStatus::kBadPayload;
  }

  std::unique_lock lock(registry_mutex_);
  if (const auto it = sessions_.find(id); it != sessions_.end()) {
    Session& s = *claim.hold(it->second);
    // A retried create whose first response was lost is echoed.
    if (auto hit = s.replay(ctx, HostCommand::kCreateSession)) return *hit;
    return HostStatus::kDuplicateSession;
  }
  if (sessions_.size() >= limits_.max_sessions ||
      committed_frames_ + params.pool_frames > limits_.frame_budget) {
    return HostStatus::kSessionLimit;
  }

  HostStatus build_status = HostStatus::kOk;
  auto session = build_session(params, build_status);
  if (!session) return build_status;

  committed_frames_ += params.pool_frames;
  tombstones_.erase(id);
  sessions_.emplace(id, session);
  BIOSENSE_COUNT("fleet.sessions_created", 1);
  BIOSENSE_GAUGE("fleet.live_sessions", sessions_.size());
  BIOSENSE_GAUGE("fleet.committed_frames", committed_frames_);
  if (session->flight) {
    BIOSENSE_FLIGHT_TO("fleet.session_created", *session->flight, id,
                       params.kind, params.preset);
  }
  BIOSENSE_FLIGHT_TO("fleet.session_created", server_flight_, id,
                     params.kind, params.preset);

  ctx.response->u32(id);
  Session& s = *claim.hold(std::move(session));
  s.remember(ctx, HostCommand::kCreateSession);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_configure(const CommandContext& ctx,
                                      SessionClaim& claim) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  const std::uint8_t param = r.u8();
  const std::uint64_t value = r.u64();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;
  if (auto hit = s.replay(ctx, HostCommand::kConfigureSession)) return *hit;

  switch (param) {
    case 0:  // DNA conversion gate code
      if (s.kind != core::ChipKind::kDna) return HostStatus::kBadState;
      if (value > 15) return HostStatus::kBadPayload;
      s.gate_code = static_cast<std::uint16_t>(value);
      break;
    case 1:  // neuro probe amplitude, microvolts
      if (s.kind != core::ChipKind::kNeuro) return HostStatus::kBadState;
      if (value > 1000000) return HostStatus::kBadPayload;
      s.stimulus_v = 1e-6 * static_cast<double>(value);
      break;
    default:
      return HostStatus::kBadPayload;
  }

  s.remember(ctx, HostCommand::kConfigureSession);  // empty response
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_start(const CommandContext& ctx,
                                  SessionClaim& claim) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  const std::uint32_t frames = r.u32();
  const bool well_formed = r.exhausted() && frames != 0;

  // A malformed start is still counted against the live session it names.
  if (!claim.hold(find_session(id))) {
    return well_formed ? HostStatus::kNoSuchSession : HostStatus::kBadPayload;
  }
  if (!well_formed) return HostStatus::kBadPayload;
  Session& s = *claim.session;
  if (auto hit = s.replay(ctx, HostCommand::kStartAcquisition)) return *hit;

  if (frames > limits_.max_pending ||
      s.pending > limits_.max_pending - frames) {
    // Explicit backpressure: the client drains before queueing more.
    return HostStatus::kBackpressure;
  }
  s.pending += frames;

  ctx.response->u32(s.pending);
  s.remember(ctx, HostCommand::kStartAcquisition);
  return HostStatus::kOk;
}

FleetServer::Record FleetServer::produce_record(Session& s) {
  Record record;
  record.index = s.frames_produced++;
  if (s.kind == core::ChipKind::kNeuro) {
    FunctionSink<neurochip::NeuroFrame> hash(
        [&record](const neurochip::NeuroFrame& frame) {
          const std::uint64_t h =
              fnv1a(kFnv1aOffset, frame.codes.data(),
                    frame.codes.size() * sizeof(std::int32_t));
          record.payload = fnv1a(h, &frame.masked, sizeof(frame.masked));
        });
    s.wire_totals += s.neuro.session
                         ->run(neurochip::ConstantSource(s.stimulus_v), s.t,
                               1, hash)
                         .wire;
    s.t += s.period;
  } else {
    const int cols = s.dna.chip->cols();
    const int row = s.site_index / cols;
    const int col = s.site_index % cols;
    s.site_index = (s.site_index + 1) % s.dna.chip->sites();
    const auto current = s.dna.host->acquire_site(row, col, s.gate_code);
    if (current) {
      std::memcpy(&record.payload, &*current, sizeof(record.payload));
    } else {
      // Typed degradation, not a crash: the record says which error the
      // active fault plan produced.
      record.payload =
          kRecordErrorBit | static_cast<std::uint64_t>(current.error());
      ++s.wire_errors;
      if (s.flight) {
        BIOSENSE_FLIGHT_TO("fleet.record_error", *s.flight, s.id,
                           record.index,
                           static_cast<std::uint64_t>(current.error()));
      }
    }
  }
  s.digest = fnv1a(s.digest, &record.payload, sizeof(record.payload));
  return record;
}

HostStatus FleetServer::cmd_poll(const CommandContext& ctx,
                                 SessionClaim& claim) {
  BIOSENSE_SPAN("fleet.poll");
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  std::uint16_t max_records = r.u16();
  if (!r.exhausted()) return HostStatus::kBadPayload;
  max_records = std::min(max_records, kMaxPollRecords);

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;

  // Top the bounded ring up from the backlog, then serve from the ring.
  // The ring is the explicit flow-control point: when it cannot absorb the
  // backlog the response says so instead of silently doing more work.
  while (s.pending > 0 && s.ring->size() < s.ring->capacity()) {
    if (!s.ring->try_push(produce_record(s))) return HostStatus::kInternal;
    --s.pending;
  }

  Record out[kMaxPollRecords];
  std::uint16_t count = 0;
  while (count < max_records) {
    auto record = s.ring->try_pop();
    if (!record) break;
    out[count++] = *record;
  }
  s.records_polled += count;

  // pending > 0 here means the top-up loop stopped on a full ring, not an
  // empty backlog: the bounded ring could not absorb the queued work, so
  // the response tells the client to keep polling before starting more.
  const std::uint8_t backpressure = s.pending > 0 ? 1 : 0;
  if (backpressure != 0 && s.flight) {
    BIOSENSE_FLIGHT_TO("fleet.ring_backpressure", *s.flight, s.id, s.pending,
                       s.ring->size());
  }

  auto& w = *ctx.response;
  w.u16(count);
  w.u8(backpressure);
  for (std::uint16_t i = 0; i < count; ++i) {
    w.u32(out[i].index);
    w.u64(out[i].payload);
  }
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_drain(const CommandContext& ctx,
                                  SessionClaim& claim) {
  BIOSENSE_SPAN("fleet.drain");
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;
  if (auto hit = s.replay(ctx, HostCommand::kDrainSession)) return *hit;

  // Finish the backlog (records fold into the digest at production) and
  // discard undelivered ring records — drain is the end-of-run barrier,
  // the digest already covers everything produced.
  while (s.pending > 0) {
    (void)produce_record(s);
    --s.pending;
  }
  while (s.ring->try_pop()) {
  }
  if (s.flight) {
    BIOSENSE_FLIGHT_TO("fleet.drain_mark", *s.flight, s.id,
                       s.frames_produced, s.wire_errors);
  }

  auto& w = *ctx.response;
  w.u32(s.frames_produced);
  w.u64(s.digest);
  w.u64(s.wire_totals.lost_words);
  w.u64(s.retries());
  w.f64(s.backoff_s());

  s.remember(ctx, HostCommand::kDrainSession);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_destroy(const CommandContext& ctx, SessionClaim&) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  std::unique_lock lock(registry_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // Destroy is idempotent: a retry after the session is gone succeeds,
    // an id that never existed does not.
    return tombstones_.count(id) ? HostStatus::kOk
                                 : HostStatus::kNoSuchSession;
  }
  const std::shared_ptr<Session> going = it->second;
  committed_frames_ -= going->params.pool_frames;
  sessions_.erase(it);
  tombstones_.emplace(id, true);
  BIOSENSE_COUNT("fleet.sessions_destroyed", 1);
  BIOSENSE_GAUGE("fleet.live_sessions", sessions_.size());
  BIOSENSE_GAUGE("fleet.committed_frames", committed_frames_);
  BIOSENSE_FLIGHT_TO("fleet.session_destroyed", server_flight_, id,
                     going->frames_produced, going->wire_errors);
  if (limits_.flight_auto_dump && going->flight) {
    std::lock_guard session_lock(going->mutex);
    going->flight->dump("fleet.s" + std::to_string(id));
  }
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_query(const CommandContext& ctx,
                                  SessionClaim& claim) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;

  const auto ring_stats = s.ring->stats();
  auto& w = *ctx.response;
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.u32(s.pending);
  w.u32(s.frames_produced);
  w.u64(s.records_polled);
  w.u16(static_cast<std::uint16_t>(s.ring->size()));
  w.u64(ring_stats.pushes);
  w.u64(ring_stats.pops);
  w.u64(ring_stats.push_stalls);
  w.u64(s.wire_totals.lost_words);
  w.u64(s.retries());
  w.u64(s.wire_errors);
  return HostStatus::kOk;
}

// --- checkpoint / restore ---------------------------------------------------

std::vector<std::uint8_t> FleetServer::save_session(const Session& s) const {
  snapshot::SnapshotBuilder builder;
  snapshot::write_section(
      builder, section_id::kParams, 1,
      [&s](snapshot::StateWriter& w) { s.params.save_state(w); });
  // Meta, chip and driver: the core session sections, written by the one
  // code path every checkpoint shares.
  const core::SessionCheckpointMeta meta{s.kind, s.frames_produced, s.t};
  if (s.kind == core::ChipKind::kNeuro) {
    core::write_session(builder, s.neuro, meta);
  } else {
    core::write_session(builder, s.dna, meta);
  }
  snapshot::write_section(builder, section_id::kCounters, kCountersVersion,
                          [&s](snapshot::StateWriter& w) {
                            w.u32(s.pending);
                            w.u64(s.records_polled);
                            w.u64(s.digest);
                            w.u64(s.wire_errors);
                            w.u16(s.gate_code);
                            w.f64(s.stimulus_v);
                            w.i32(s.site_index);
                            s.wire_totals.save_state(w);
                          });
  snapshot::write_section(
      builder, section_id::kRing, 1, [&s](snapshot::StateWriter& w) {
        s.ring->save_state(w, [](snapshot::StateWriter& sw, const Record& rec) {
          sw.u32(rec.index);
          sw.u64(rec.payload);
        });
      });
  snapshot::write_section(builder, section_id::kReplay, 1,
                          [&s](snapshot::StateWriter& w) {
                            w.b(s.has_replay);
                            w.u16(s.replay_seq);
                            w.u16(static_cast<std::uint16_t>(s.replay_command));
                            w.u16(static_cast<std::uint16_t>(s.replay_status));
                            w.bytes(s.replay_payload);
                          });
  if (s.flight && s.flight->enabled()) {
    // Optional section: a telemetry-off restore of a telemetry-on
    // checkpoint simply skips it.
    snapshot::write_section(
        builder, section_id::kFlight, 1,
        [&s](snapshot::StateWriter& w) { s.flight->save_state(w); });
  }
  return builder.finish();
}

HostStatus FleetServer::cmd_checkpoint(const CommandContext& ctx,
                                       SessionClaim& claim) {
  BIOSENSE_SPAN("fleet.checkpoint");
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;
  if (auto hit = s.replay(ctx, HostCommand::kCheckpointSession)) return *hit;

  // The mark goes in before serialization so the checkpoint itself carries
  // it — a restored session's ring shows its own checkpoint history.
  if (s.flight) {
    BIOSENSE_FLIGHT_TO("fleet.checkpoint_mark", *s.flight, s.id,
                       s.frames_produced, s.pending);
  }
  BIOSENSE_FLIGHT_TO("fleet.checkpoint_mark", server_flight_, s.id,
                     s.frames_produced, s.pending);
  const std::vector<std::uint8_t> bytes = save_session(s);
  const std::uint64_t digest = fnv1a(kFnv1aOffset, bytes.data(),
                                    bytes.size());
  {
    std::lock_guard store_lock(checkpoint_mutex_);
    checkpoints_[id] = bytes;
  }
  if (!limits_.checkpoint_dir.empty()) {
    snapshot::CheckpointStore store(limits_.checkpoint_dir,
                                    checkpoint_name(id));
    if (auto saved = store.save(bytes); !saved) {
      // Disk persistence failed; the in-memory copy is still good but the
      // crash-safety contract is not met — report it, don't pretend.
      return HostStatus::kInternal;
    }
  }
  BIOSENSE_COUNT("fleet.checkpoints", 1);

  auto& w = *ctx.response;
  w.u32(static_cast<std::uint32_t>(bytes.size()));
  w.u64(digest);
  s.remember(ctx, HostCommand::kCheckpointSession);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_restore(const CommandContext& ctx,
                                    SessionClaim& claim) {
  BIOSENSE_SPAN("fleet.restore");
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;
  // A restore refused before the registry check still counts against a
  // live session of the same id.
  const auto refuse = [&](HostStatus status) {
    claim.hold(find_session(id));
    return status;
  };

  // Fetch the checkpoint: this server's memory first, then the crash-safe
  // store (which falls back to the previous-good slot on corruption —
  // that's the dead-worker recovery path for a fresh server).
  std::vector<std::uint8_t> bytes;
  {
    std::lock_guard store_lock(checkpoint_mutex_);
    if (const auto it = checkpoints_.find(id); it != checkpoints_.end()) {
      bytes = it->second;
    }
  }
  if (bytes.empty()) {
    if (limits_.checkpoint_dir.empty()) {
      return refuse(HostStatus::kNoSuchSession);
    }
    snapshot::CheckpointStore store(limits_.checkpoint_dir,
                                    checkpoint_name(id));
    auto loaded = store.load();
    if (!loaded) {
      return refuse(loaded.error() == snapshot::SnapshotError::kIoError
                        ? HostStatus::kNoSuchSession
                        : HostStatus::kFault);
    }
    bytes = std::move(loaded.value());
  }

  const auto view = snapshot::SnapshotView::parse(bytes);
  if (!view) return refuse(HostStatus::kFault);

  // Params: the create parameters the frozen die state is rebuilt from.
  CreateParams params;
  const auto params_loaded = snapshot::load_section(
      *view, section_id::kParams, 1,
      [&params](snapshot::StateReader& pr) { params.load_state(pr); });
  if (!params_loaded || params.id != id) return refuse(HostStatus::kFault);

  std::unique_lock lock(registry_mutex_);
  if (const auto it = sessions_.find(id); it != sessions_.end()) {
    Session& live = *claim.hold(it->second);
    // A retried restore whose first response was lost is echoed.
    if (auto hit = live.replay(ctx, HostCommand::kRestoreSession)) {
      return *hit;
    }
    return HostStatus::kBadState;
  }
  if (sessions_.size() >= limits_.max_sessions ||
      committed_frames_ + params.pool_frames > limits_.frame_budget) {
    return HostStatus::kSessionLimit;
  }

  HostStatus build_status = HostStatus::kOk;
  auto session = build_session(params, build_status);
  // Parameters straight out of a CRC-valid checkpoint failing construction
  // means the checkpoint lies about itself — typed fault, not a crash.
  if (!session) return HostStatus::kFault;
  Session& s = *session;

  // Meta, chip and driver load through the shared reader, which checks the
  // meta fingerprint against the kind and shape just built from the params
  // before any state loads; the fleet's own sections follow.
  const auto meta = s.kind == core::ChipKind::kNeuro
                        ? core::read_session(*view, s.neuro)
                        : core::read_session(*view, s.dna);
  if (!meta ||
      meta->frames_done > std::numeric_limits<std::uint32_t>::max()) {
    return HostStatus::kFault;
  }
  s.frames_produced = static_cast<std::uint32_t>(meta->frames_done);
  s.t = meta->t;
  const auto counters = snapshot::load_section(
      *view, section_id::kCounters, kCountersVersion,
      [&s](snapshot::StateReader& sr) {
        s.pending = sr.u32();
        s.records_polled = sr.u64();
        s.digest = sr.u64();
        s.wire_errors = sr.u64();
        s.gate_code = sr.u16();
        s.stimulus_v = sr.f64();
        s.site_index = sr.i32();
        s.wire_totals.load_state(sr);
      });
  const auto ring = snapshot::load_section(
      *view, section_id::kRing, 1, [&s](snapshot::StateReader& sr) {
        s.ring->load_state(sr, [](snapshot::StateReader& ir) {
          Record rec;
          rec.index = ir.u32();
          rec.payload = ir.u64();
          return rec;
        });
      });
  const auto replay = snapshot::load_section(
      *view, section_id::kReplay, 1, [&s](snapshot::StateReader& sr) {
        s.has_replay = sr.b();
        s.replay_seq = sr.u16();
        s.replay_command = static_cast<HostCommand>(sr.u16());
        s.replay_status = static_cast<HostStatus>(sr.u16());
        sr.bytes(s.replay_payload, kMaxPayload);
      });
  // Flight history is optional (the producer may have run telemetry off)
  // but must parse cleanly when present and this server has a recorder to
  // receive it.
  const auto flight =
      s.flight ? snapshot::load_optional_section(
                     *view, section_id::kFlight, 1,
                     [&s](snapshot::StateReader& sr) {
                       s.flight->load_state(sr);
                     })
               : Result<void, snapshot::SnapshotError>::ok();
  // A CRC-valid checkpoint may still hold values no live session can: a
  // gate code or probe amplitude configure refuses (the comparisons are
  // false for NaN), a site outside the array.
  const bool in_range =
      s.gate_code <= 15 && s.stimulus_v >= 0.0 && s.stimulus_v <= 1.0 &&
      s.site_index >= 0 &&
      (s.kind != core::ChipKind::kDna || s.site_index < s.dna.chip->sites());
  if (!counters || !ring || !replay || !flight || !in_range) {
    // The discarded session never entered the registry — no cleanup.
    return HostStatus::kFault;
  }
  // A backlog above the cap start enforces is refused as admission.
  if (s.pending > limits_.max_pending) return HostStatus::kSessionLimit;

  committed_frames_ += params.pool_frames;
  tombstones_.erase(id);
  sessions_.emplace(id, session);
  BIOSENSE_COUNT("fleet.sessions_restored", 1);
  BIOSENSE_GAUGE("fleet.live_sessions", sessions_.size());
  BIOSENSE_GAUGE("fleet.committed_frames", committed_frames_);
  if (s.flight) {
    BIOSENSE_FLIGHT_TO("fleet.restore_mark", *s.flight, s.id,
                       s.frames_produced, s.pending);
  }
  BIOSENSE_FLIGHT_TO("fleet.restore_mark", server_flight_, s.id,
                     s.frames_produced, s.pending);

  auto& w = *ctx.response;
  w.u32(s.frames_produced);
  w.u64(s.digest);
  claim.hold(std::move(session));
  s.remember(ctx, HostCommand::kRestoreSession);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_server_stats(const CommandContext& ctx,
                                         SessionClaim&) {
  std::shared_lock lock(registry_mutex_);
  auto& w = *ctx.response;
  w.u32(static_cast<std::uint32_t>(sessions_.size()));
  w.u32(static_cast<std::uint32_t>(committed_frames_));
  w.u32(static_cast<std::uint32_t>(limits_.frame_budget));
  w.u32(static_cast<std::uint32_t>(limits_.max_sessions));
  w.u32(static_cast<std::uint32_t>(tombstones_.size()));
  return HostStatus::kOk;
}

// --- telemetry --------------------------------------------------------------

HostStatus FleetServer::cmd_session_health(const CommandContext& ctx,
                                           SessionClaim& claim) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (!claim.hold(find_session(id))) return HostStatus::kNoSuchSession;
  Session& s = *claim.session;

  // One flat summary a monitor can poll cheaply: progress, flow control,
  // link quality and outcome tracking in a single fixed-shape response.
  // Allocation-free on the server side — monitors may poll it hot.
  const auto ring_stats = s.ring->stats();

  auto& w = *ctx.response;
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.u16(s.last_command);
  w.u16(s.last_status);
  w.u32(s.pending);
  w.u32(s.frames_produced);
  w.u16(static_cast<std::uint16_t>(s.ring->size()));
  w.u16(static_cast<std::uint16_t>(s.ring->capacity()));
  w.u16(s.params.pool_frames);
  w.u64(s.records_polled);
  w.u64(s.commands_handled);
  w.u64(s.retries());
  w.u64(s.wire_totals.lost_words);
  w.u64(s.wire_errors);
  w.u64(ring_stats.push_stalls);
  w.u64(s.flight ? s.flight->recorded() : 0);
  w.u64(s.flight ? s.flight->dropped() : 0);
  w.f64(s.backoff_s());
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_get_metrics(const CommandContext& ctx,
                                        SessionClaim&) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t offset = r.u32();
  const std::uint16_t max_bytes = r.u16();
  if (!r.exhausted() || max_bytes == 0) return HostStatus::kBadPayload;

  // A registry snapshot easily exceeds one frame, so the export is
  // chunked: offset 0 re-encodes into the cache, later offsets serve the
  // cached bytes — one consistent snapshot per scan, not per chunk.
  std::lock_guard lock(metrics_mutex_);
  if (offset == 0) {
    metrics_wire_ = obs::encode_snapshot(obs::Registry::global().snapshot());
  }
  if (offset > metrics_wire_.size()) return HostStatus::kBadPayload;
  // Response room: one frame's payload minus the 8-byte total+offset
  // preamble.
  const std::size_t room = kMaxPayload - 8;
  const std::size_t chunk =
      std::min({static_cast<std::size_t>(max_bytes), room,
                metrics_wire_.size() - offset});

  auto& w = *ctx.response;
  w.u32(static_cast<std::uint32_t>(metrics_wire_.size()));
  w.u32(offset);
  w.raw(metrics_wire_.data() + offset, chunk);
  return HostStatus::kOk;
}

HostStatus FleetServer::cmd_dump_flight(const CommandContext& ctx,
                                        SessionClaim&) {
  const auto& req = *ctx.request;
  snapshot::StateReader r(req.payload, req.payload_len);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) return HostStatus::kBadPayload;

  if (id == kServerFlightScope) {
    // Server-wide ring: no session, no replay cache — dumping twice just
    // writes the artifact twice, which is naturally idempotent.
    if (!server_flight_.enabled()) return HostStatus::kBadState;
    const std::string path = server_flight_.dump("fleet.server");
    if (path.empty()) return HostStatus::kInternal;
    auto& w = *ctx.response;
    w.u32(static_cast<std::uint32_t>(server_flight_.events().size()));
    w.u64(server_flight_.recorded());
    w.u64(server_flight_.dropped());
    w.str(path);
    return HostStatus::kOk;
  }

  const auto session = find_session(id);
  if (!session) return HostStatus::kNoSuchSession;
  std::lock_guard lock(session->mutex);
  Session& s = *session;
  if (auto hit = s.replay(ctx, HostCommand::kDumpFlightRecorder)) return *hit;
  if (!s.flight || !s.flight->enabled()) return HostStatus::kBadState;

  const std::string path = s.flight->dump("fleet.s" + std::to_string(s.id));
  if (path.empty()) return HostStatus::kInternal;

  auto& w = *ctx.response;
  w.u32(static_cast<std::uint32_t>(s.flight->events().size()));
  w.u64(s.flight->recorded());
  w.u64(s.flight->dropped());
  w.str(path);
  s.remember(ctx, HostCommand::kDumpFlightRecorder);
  return HostStatus::kOk;
}

}  // namespace biosense::host
