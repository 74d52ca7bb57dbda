// fleet_mixed: one FleetClient drives a FleetServer holding 256 live
// sessions over the in-process ServerLink, one op per logical command.
//
// Even session ids are 8x8 neural chips, odd ids 4x4 DNA chips with
// 1-8 ms gates (the shapes bench_fleet_server uses). The client walks the
// sessions round-robin, one 16-command block per visit: start(4), one
// poll that returns the 4 records, 11 empty polls, ping, query and a
// poll(64). Every kCycleEvery-th block also checkpoints its session,
// destroys it and restores it from the checkpoint (0.2 % of commands,
// low enough that snapshot work does not crowd the p99 of command latency).
#include <array>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "host/client.hpp"
#include "host/fleet_server.hpp"

namespace perfbench {
namespace {

using namespace biosense;
using host::FleetClient;

constexpr std::uint32_t kSessions = 256;
constexpr std::uint32_t kFrames = 4;  // records started per visit
constexpr std::uint64_t kCycleEvery = 101;  // odd: hits both chip kinds
constexpr int kSetupRepeats = 5;
constexpr std::size_t kSpanCapacity = 300000;  // ~100k traced commands
// A DNA record's payload is the site current's IEEE bits (positive, so the
// top bit is clear) or this bit plus a typed error code. Neural payloads
// are frame digests and carry no error bit.
constexpr std::uint64_t kRecordErrorBit = 1ULL << 63;

/// Times the server's handling of each request: the span between request
/// handed to the server and response back, with no client work inside.
class TimedLink final : public host::ByteLink {
 public:
  explicit TimedLink(host::ByteLink& inner) : inner_(&inner) {}
  bool roundtrip(const std::vector<std::uint8_t>& request,
                 std::vector<std::uint8_t>& response) override {
    begin_ns = now_ns();
    const bool delivered = inner_->roundtrip(request, response);
    end_ns = now_ns();
    return delivered;
  }
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

 private:
  host::ByteLink* inner_;
};

struct SessionPlan {
  FleetClient::SessionSpec spec;
  std::uint64_t config_value = 0;
  std::uint32_t next_index = 0;  // next record index the session must return
};

std::vector<SessionPlan> plan_sessions(std::uint64_t seed) {
  std::vector<SessionPlan> plans(kSessions);
  Rng rng(derive_seed(seed, 8));
  // Each DNA gate code goes to the same number of sessions, in a seeded
  // order: the gate sets a record's conversion cost, so a balanced mix
  // keeps the fleet's work per command the same for every seed.
  std::vector<std::uint64_t> gates(kSessions / 2);
  for (std::size_t i = 0; i < gates.size(); ++i) gates[i] = i % 4;
  rng.shuffle(gates);
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    SessionPlan& p = plans[i];
    const std::uint32_t id = i + 1;
    const bool neuro = id % 2 == 0;
    p.spec.id = id;
    p.spec.kind = neuro ? core::ChipKind::kNeuro : core::ChipKind::kDna;
    p.spec.rows = neuro ? 8 : 4;
    p.spec.cols = neuro ? 8 : 4;
    p.spec.seed = rng.next_u64();
    p.spec.pool_frames = 2;
    p.spec.ring_depth = 32;
    // Neural probe amplitude 100-499 uV; DNA gate code 0-3 (1-8 ms).
    p.config_value = neuro ? static_cast<std::uint64_t>(rng.uniform_int(100, 499))
                           : gates[i / 2];
  }
  return plans;
}

struct Fleet {
  std::unique_ptr<host::FleetServer> server;
  std::unique_ptr<host::ServerLink> server_link;
  std::unique_ptr<TimedLink> link;
  std::unique_ptr<FleetClient> client;
  std::vector<SessionPlan> plans;
};

std::unique_ptr<Fleet> build_fleet(std::uint64_t seed) {
  auto f = std::make_unique<Fleet>();
  f->server = std::make_unique<host::FleetServer>();
  f->server_link = std::make_unique<host::ServerLink>(*f->server);
  f->link = std::make_unique<TimedLink>(*f->server_link);
  f->client = std::make_unique<FleetClient>(*f->link);
  f->plans = plan_sessions(seed);
  for (const SessionPlan& p : f->plans) {
    const bool neuro = p.spec.kind == core::ChipKind::kNeuro;
    if (!f->client->create(p.spec) ||
        !f->client->configure(p.spec.id, neuro ? 1 : 0, p.config_value)) {
      throw std::runtime_error("fleet set-up: create/configure failed");
    }
  }
  return f;
}

/// Command kinds, for latency attribution in the traced run.
enum Kind : int {
  kStart, kRecordPoll, kEmptyPoll, kPing, kQuery, kCheckpoint, kDestroy,
  kRestore, kKinds
};
constexpr std::array<const char*, kKinds> kOpNames = {
    "fleet.start", "fleet.poll", "fleet.poll", "fleet.ping", "fleet.query",
    "fleet.checkpoint", "fleet.destroy", "fleet.restore"};

/// The client's command script. Every command's latency is recorded
/// when `latency` is set, its spans when `log` is set; a command fails
/// when the check its lambda returns is false.
struct Script {
  Script(Fleet& f, Outcome& o) : fleet(f), out(o) {}

  Fleet& fleet;
  Outcome& out;
  SpanLog* log = nullptr;
  LatencyHistogram* latency = nullptr;
  std::uint64_t last_end = 0;
  std::uint64_t op = 0;
  // Traced-run counts.
  std::uint64_t records = 0;
  std::uint64_t polls = 0;
  std::uint64_t checkpoint_bytes[2] = {0, 0};  // neuro, dna (last seen)
  std::vector<FleetClient::Record> scratch;

  template <typename Fn>
  void cmd(Kind kind, bool neuro, Fn&& fn) {
    const std::uint64_t begin = now_ns();
    const bool ok = fn();
    const std::uint64_t end = now_ns();
    if (latency != nullptr) {
      latency->add(static_cast<double>(end - begin) * 1e-6);
    }
    if (log != nullptr) {
      // The op runs from the previous command's end, so the benchmark's
      // own work between commands shows as the op's uncovered time.
      const int root = log->add(kOpNames[static_cast<std::size_t>(kind)],
                                last_end, end, -1, op);
      const int client = log->add("host.client", begin, end, root, op);
      log->add(handle_span(kind, neuro), fleet.link->begin_ns,
               fleet.link->end_ns, client, op);
    }
    last_end = end;
    ++op;
    ++out.attempted;
    if (!ok) ++out.failed;
  }

  static const char* handle_span(Kind kind, bool neuro) {
    switch (kind) {
      case kRecordPoll:
        return neuro ? "host.poll_neuro" : "host.poll_dna";
      case kCheckpoint:
        return "snapshot.checkpoint";
      case kRestore:
        return "snapshot.restore";
      case kDestroy:
        return "host.destroy";
      default:
        return "host.cheap";
    }
  }

  bool poll(SessionPlan& p, std::uint16_t max, std::uint32_t expect) {
    scratch.clear();
    const auto r = fleet.client->poll(p.spec.id, max, scratch);
    if (!r || r->returned != expect || scratch.size() != expect) return false;
    ++polls;
    records += expect;
    const bool dna = p.spec.kind == core::ChipKind::kDna;
    bool ok = true;
    for (const auto& rec : scratch) {
      ok &= rec.index == p.next_index++;
      ok &= !dna || (rec.payload & kRecordErrorBit) == 0;
    }
    return ok;
  }

  /// One 16-command visit to a session (plus the snapshot cycle).
  void block(std::uint64_t b) {
    SessionPlan& p = fleet.plans[b % kSessions];
    const std::uint32_t id = p.spec.id;
    const bool neuro = p.spec.kind == core::ChipKind::kNeuro;
    FleetClient& c = *fleet.client;
    cmd(kStart, neuro, [&] {
      const auto r = c.start(id, kFrames);
      return r && *r == kFrames;
    });
    cmd(kRecordPoll, neuro, [&] { return poll(p, 4, kFrames); });
    if (b % kCycleEvery == kCycleEvery / 2) {
      // The ring is empty here, so the restored session resumes exactly
      // at the next record index.
      cmd(kCheckpoint, neuro, [&] {
        const auto r = c.checkpoint(id);
        if (r) checkpoint_bytes[neuro ? 0 : 1] = r->size;
        return static_cast<bool>(r);
      });
      cmd(kDestroy, neuro, [&] { return static_cast<bool>(c.destroy(id)); });
      cmd(kRestore, neuro, [&] {
        const auto r = c.restore(id);
        return r && r->frames_produced == p.next_index;
      });
    }
    for (int k = 0; k < 11; ++k) {
      cmd(kEmptyPoll, neuro, [&] { return poll(p, 4, 0); });
    }
    cmd(kPing, neuro, [&] {
      std::uint8_t probe[8];
      const std::uint64_t tag = id ^ (b << 20);
      std::memcpy(probe, &tag, sizeof(probe));
      return static_cast<bool>(c.ping(probe, sizeof(probe)));
    });
    cmd(kQuery, neuro, [&] {
      const auto r = c.query(id);
      return r && r->frames_produced == p.next_index && r->pending == 0;
    });
    cmd(kEmptyPoll, neuro, [&] { return poll(p, 64, 0); });
  }
};

}  // namespace

Outcome run_fleet(const Options& opt) {
  Outcome out;
  const auto build = [&] { return build_fleet(opt.seed); };
  std::unique_ptr<Fleet> fleet = timed_setup(out, build);

  Script d(*fleet, out);
  d.scratch.reserve(256);
  // Warm-up: one visit to every session, excluded from every metric.
  std::uint64_t b = 0;
  for (; b < kSessions; ++b) d.block(b);
  out.warmup_failed = out.failed;
  out.failed = 0;
  out.attempted = 0;
  out.digest = fleet->client->response_digest();

  const auto run_blocks = [&](double seconds, std::uint64_t min_commands) {
    const std::uint64_t start = now_ns();
    const std::uint64_t before = out.attempted;
    d.last_end = start;
    while ((seconds_between(start, d.last_end) < seconds ||
            out.attempted - before < min_commands) &&
           (d.log == nullptr || !d.log->full())) {
      d.block(b++);
    }
    return start;
  };

  if (!opt.trace) {
    d.latency = &out.latency_ms;
    const std::uint64_t start = run_blocks(opt.seconds, min_ops(out.tail_q));
    out.window_s = seconds_between(start, d.last_end);
    fleet.reset();
    finish_run(out, kSetupRepeats, build);
    return out;
  }

  // Traced run: an untraced third for the overhead reference, then the
  // traced rest (bounded by the span budget).
  {
    const std::uint64_t ops_before = out.attempted;
    const std::uint64_t start = run_blocks(opt.seconds / 3.0, 0);
    out.untraced_ops_per_s = static_cast<double>(out.attempted - ops_before) /
                             seconds_between(start, d.last_end);
  }
  SpanLog log(kSpanCapacity);
  d.log = &log;
  d.latency = &out.latency_ms;
  d.records = 0;
  d.polls = 0;
  const std::uint64_t ops_before = out.attempted;
  const std::uint64_t start = run_blocks(opt.seconds - opt.seconds / 3.0, 0);
  out.window_s = seconds_between(start, d.last_end);
  const double ops = static_cast<double>(out.attempted - ops_before);
  out.traced_ops_per_s = ops / out.window_s;

  std::map<std::string, double> other;
  other["untraced_ops_per_s"] = out.untraced_ops_per_s;
  other["traced_ops_per_s"] = out.traced_ops_per_s;
  other["host.records_per_poll"] =
      static_cast<double>(d.records) / static_cast<double>(d.polls);
  other["snapshot.checkpoint_bytes_neuro"] =
      static_cast<double>(d.checkpoint_bytes[0]);
  other["snapshot.checkpoint_bytes_dna"] =
      static_cast<double>(d.checkpoint_bytes[1]);
  if (!log.write(opt.trace_path, other)) {
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
  }
  out.info = other;
  return out;
}

}  // namespace perfbench
