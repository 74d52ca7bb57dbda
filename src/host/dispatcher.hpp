// Command dispatcher: the table-driven routing core of the fleet server.
//
// Commands register once at construction into a sorted registry of
// `CommandSpec`s — id, diagnostic name and declared payload bounds — and
// dispatch is a binary search plus schema pre-checks, so adding a command
// never touches the routing logic. The dispatcher owns every
// protocol-level decision (magic, CRC, version byte, unknown ids, payload
// bounds); handlers only see frames that already passed their declared
// schema, and only produce a status plus response payload bytes. The hot
// path allocates nothing in steady state: requests decode in place,
// responses build into caller-owned buffers whose capacity survives
// across commands.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "host/protocol.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {

/// Context handed to a handler: the decoded request plus the response
/// payload builder (response header fields are filled by the dispatcher).
/// Handlers parse the request payload with a snapshot::StateReader.
struct CommandContext {
  const DecodedFrame* request = nullptr;
  snapshot::StateWriter* response = nullptr;
};

/// One registered command. `min_payload`/`max_payload` declare the request
/// schema bounds the dispatcher enforces before the handler runs. Replay
/// of a retried mutating command is the handler's own business (the fleet
/// server's per-session replay cache).
struct CommandSpec {
  HostCommand id = HostCommand::kPing;
  const char* name = "";
  std::uint16_t min_payload = 0;
  std::uint16_t max_payload = 0;
  std::function<HostStatus(const CommandContext&)> handler;
};

class Dispatcher {
 public:
  /// Registers a command. Throws ConfigError on a duplicate id — two
  /// handlers for one command is a wiring bug.
  void register_command(CommandSpec spec);

  /// Full request->response cycle: decode `bytes`, route, and serialize
  /// the response frame into `response` (cleared, capacity retained).
  /// Never throws for wire-level garbage — every failure mode maps to a
  /// typed status response. Returns the response's status. Every reply
  /// carries kProtocolVersion; undecodable frames (bad magic/CRC/
  /// truncation) are answered with a best-effort command/seq echo from
  /// the raw bytes when legible.
  ///
  /// Re-entrant and const w.r.t. the registry: concurrent dispatches with
  /// distinct `response` buffers are safe as long as the handlers
  /// themselves synchronize their shared state (the fleet server's
  /// per-session locks).
  HostStatus dispatch(const std::uint8_t* bytes, std::size_t n,
                      std::vector<std::uint8_t>& response) const;

 private:
  /// Spec lookup (nullptr if absent).
  const CommandSpec* find(HostCommand id) const;
  HostStatus route(const DecodedFrame& frame,
                   snapshot::StateWriter& writer) const;

  std::vector<CommandSpec> specs_;  // sorted by id
};

}  // namespace biosense::host
