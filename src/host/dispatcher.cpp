#include "host/dispatcher.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace biosense::host {

void Dispatcher::register_command(CommandSpec spec) {
  require(static_cast<bool>(spec.handler),
          "Dispatcher: command registered without a handler");
  const auto pos = std::lower_bound(
      specs_.begin(), specs_.end(), spec.id,
      [](const CommandSpec& s, HostCommand id) { return s.id < id; });
  require(pos == specs_.end() || pos->id != spec.id,
          "Dispatcher: duplicate command id");
  specs_.insert(pos, std::move(spec));
}

const CommandSpec* Dispatcher::find(HostCommand id) const {
  const auto pos = std::lower_bound(
      specs_.begin(), specs_.end(), id,
      [](const CommandSpec& s, HostCommand want) { return s.id < want; });
  if (pos == specs_.end() || pos->id != id) return nullptr;
  return &*pos;
}

HostStatus Dispatcher::dispatch(const std::uint8_t* bytes, std::size_t n,
                                std::vector<std::uint8_t>& response) const {
  BIOSENSE_SPAN("host.dispatch");
  const auto decoded = decode_frame(bytes, n);

  // The reply echoes the request's command and seq. For a frame that
  // failed to decode these are whatever the raw bytes make legible, so
  // even a reject correlates with its request. The version byte is always
  // ours: it names the one version this server speaks.
  FrameHeader reply;
  if (n >= kHeaderSize) reply = read_header(bytes);
  reply.version = kProtocolVersion;

  // The response payload builds directly behind a header placeholder in
  // the caller's buffer — no dispatcher-owned scratch, so concurrent
  // dispatches never share mutable state.
  response.clear();
  response.resize(kHeaderSize);
  snapshot::StateWriter writer(response);

  if (!decoded) {
    reply.status = decoded.error();
  } else if (decoded->header.version != kProtocolVersion) {
    reply.status = HostStatus::kBadVersion;
  } else {
    reply.status = route(*decoded, writer);
    if (reply.status != HostStatus::kOk) {
      // Typed-error responses carry no partial payload: a handler may
      // have written some bytes before failing.
      response.resize(kHeaderSize);
    }
  }

  BIOSENSE_COUNT("host.commands", 1);
  if (reply.status != HostStatus::kOk) BIOSENSE_COUNT("host.rejects", 1);
  finalize_frame(reply, response);
  return reply.status;
}

HostStatus Dispatcher::route(const DecodedFrame& frame,
                             snapshot::StateWriter& writer) const {
  const CommandSpec* spec = find(frame.header.command);
  if (spec == nullptr) return HostStatus::kUnknownCommand;
  if (frame.payload_len < spec->min_payload ||
      frame.payload_len > spec->max_payload) {
    return HostStatus::kBadPayload;
  }
  CommandContext ctx;
  ctx.request = &frame;
  ctx.response = &writer;
  return spec->handler(ctx);
}

}  // namespace biosense::host
