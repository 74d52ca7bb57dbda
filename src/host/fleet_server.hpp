// FleetServer: one process serving a fleet of virtual chips (DESIGN.md §12).
//
// The server multiplexes hundreds-to-thousands of concurrent chip sessions
// — mixed DNA microarray readout and neural streaming — behind the
// host-command protocol. Every session is built through the
// audited `core::SessionOptions` surface, owns its chips/links/RNGs
// outright and is guarded by its own mutex, so commands for different
// sessions execute fully in parallel while commands for one session
// serialize. A neural session produces each record by running its
// `core::ChipSession` for one frame, the same capture -> wire path a
// streaming run takes. All per-session randomness is seeded from the
// client-chosen session id, which makes each session's response stream a
// pure function of its own command sequence: per-session outputs are
// bitwise identical no matter how many server worker threads interleave
// the fleet.
//
// Flow control is explicit, not implicit: admission control bounds the
// fleet's pooled-frame budget at create time (kSessionLimit), per-session
// acquisition backlogs are bounded (kBackpressure), and poll responses
// carry a backpressure flag whenever the session's bounded record ring
// could not absorb the remaining backlog. Under an active fault plan the
// transport degrades exactly like the lab: records carry typed error
// sentinels, responses turn into NACK-style typed statuses — the server
// never throws for wire- or fault-level trouble.
//
// Threading note: `handle` is safe to call from many threads. The chips'
// capture path uses the global deterministic parallel engine; when driving
// the server from several external worker threads, run that engine at one
// thread (`set_max_threads(1)`) so captures stay inline on the calling
// worker.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/channel.hpp"
#include "core/session_options.hpp"
#include "host/dispatcher.hpp"
#include "host/protocol.hpp"
#include "neurochip/signal_source.hpp"
#include "obs/flight.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {

/// Server-wide resource policy.
struct FleetLimits {
  /// Hard cap on live sessions (admission control).
  std::size_t max_sessions = 1024;
  /// Fleet-wide pooled-frame budget: the sum of every live session's
  /// `pool_frames` may not exceed this (admission control).
  std::size_t frame_budget = 4096;
  /// Per-session backlog cap for queued acquisition work (backpressure).
  std::uint32_t max_pending = 1u << 16;
  /// Obs prefix for per-session instruments ("fleet" -> "fleet.s42.ring.*").
  /// Empty disables per-session instruments — the configuration for
  /// throughput-critical fleets of hundreds of sessions.
  std::string obs_prefix{};
  /// Directory for crash-safe checkpoint persistence (kCheckpointSession).
  /// Empty keeps checkpoints in server memory only — a restore then only
  /// works on the same server instance; with a directory, a *fresh* server
  /// pointed at it can restore sessions a dead worker checkpointed.
  std::string checkpoint_dir{};
  /// Per-session flight-recorder ring capacity in events. 0 (the default)
  /// disables session telemetry entirely — no recorders, no per-command
  /// outcome tracking — so an untelemetered fleet pays nothing.
  std::size_t flight_events = 0;
  /// Server-wide flight-recorder ring capacity (session lifecycle,
  /// checkpoint/restore marks). 0 disables it.
  std::size_t server_flight_events = 0;
};

class FleetServer {
 public:
  explicit FleetServer(FleetLimits limits = {});

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// One request/response cycle. `request` is the raw frame, the response
  /// frame is built into `response` (cleared, capacity retained — reuse
  /// the buffer across calls for the allocation-free steady state).
  /// Thread-safe; never throws for protocol-, session- or fault-level
  /// failures (typed statuses instead).
  HostStatus handle(const std::uint8_t* request, std::size_t n,
                    std::vector<std::uint8_t>& response);

  std::size_t live_sessions() const;
  /// Pooled frames committed across live sessions (admission bookkeeping).
  std::size_t committed_frames() const;

 private:
  /// One produced acquisition record: a frame (neuro) or site conversion
  /// (dna) reduced to an order-stamped 64-bit digest/value.
  struct Record {
    std::uint32_t index = 0;
    std::uint64_t payload = 0;
  };

  struct Session;
  struct SessionClaim;

  /// A create command's payload, repeated as a checkpoint's params section
  /// so a restore rebuilds the same session by construction.
  struct CreateParams {
    std::uint32_t id = 0;
    std::uint8_t kind = 0;  // core::ChipKind's value
    std::uint16_t rows = 0;
    std::uint16_t cols = 0;
    std::uint64_t seed = 0;
    std::uint16_t pool_frames = 0;
    std::uint16_t ring_depth = 0;
    std::uint8_t preset = 0;

    void save_state(snapshot::StateWriter& w) const {
      w.u32(id);
      w.u8(kind);
      w.u16(rows);
      w.u16(cols);
      w.u64(seed);
      w.u16(pool_frames);
      w.u16(ring_depth);
      w.u8(preset);
    }
    void load_state(snapshot::StateReader& r) {
      id = r.u32();
      kind = r.u8();
      rows = r.u16();
      cols = r.u16();
      seed = r.u64();
      pool_frames = r.u16();
      ring_depth = r.u16();
      preset = r.u8();
    }
  };

  void register_handlers();

  // Every handler gets a claim; only session-scoped ones fill it.
  HostStatus cmd_ping(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_create(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_configure(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_start(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_poll(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_drain(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_destroy(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_query(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_checkpoint(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_restore(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_server_stats(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_session_health(const CommandContext& ctx,
                                SessionClaim& claim);
  HostStatus cmd_get_metrics(const CommandContext& ctx, SessionClaim& claim);
  HostStatus cmd_dump_flight(const CommandContext& ctx, SessionClaim& claim);

  /// Telemetry-on bookkeeping for a command addressed to `s` (caller holds
  /// its mutex): health outcome counters and rejection events.
  void note_outcome(Session& s, const DecodedFrame& req, HostStatus status);

  /// Produces the session's next record (advances chip/link state).
  Record produce_record(Session& s);

  /// Shared-lock session lookup; nullptr when absent.
  std::shared_ptr<Session> find_session(std::uint32_t id) const;

  /// Constructs a session through the audited `core::SessionOptions`
  /// surface (shared by create and restore). Returns nullptr and sets
  /// `status` on invalid parameters.
  std::shared_ptr<Session> build_session(const CreateParams& p,
                                         HostStatus& status);

  /// Serializes one session (caller holds its mutex) into a snapshot
  /// container: its create params, the core session sections, then its
  /// counters, ring, replay cache and flight ring (DESIGN.md §13.2).
  std::vector<std::uint8_t> save_session(const Session& s) const;

  FleetLimits limits_;
  Dispatcher dispatcher_;
  /// Server-wide event ring (disabled at capacity 0).
  obs::FlightRecorder server_flight_;

  mutable std::shared_mutex registry_mutex_;
  std::map<std::uint32_t, std::shared_ptr<Session>> sessions_;
  /// Destroyed ids: a destroy retry must stay idempotent (kOk) after the
  /// session is gone.
  std::map<std::uint32_t, bool> tombstones_;
  std::size_t committed_frames_ = 0;

  /// Latest checkpoint per session id (always kept in memory; additionally
  /// persisted crash-safely when `limits_.checkpoint_dir` is set).
  mutable std::mutex checkpoint_mutex_;
  std::map<std::uint32_t, std::vector<std::uint8_t>> checkpoints_;

  /// kGetMetrics chunk cache: a snapshot encoding can exceed one payload
  /// frame, so offset 0 re-encodes and later offsets serve from the cache.
  mutable std::mutex metrics_mutex_;
  std::vector<std::uint8_t> metrics_wire_;
};

}  // namespace biosense::host
