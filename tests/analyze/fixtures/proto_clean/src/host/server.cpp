#include "host/protocol.hpp"

namespace demo::host {

struct Server {
  void register_handlers();
  void add(HostCommand c, int max_payload);
  std::uint32_t caps() const { return kCapSessions | kCapTelemetry; }
};

void Server::register_handlers() {
  add(HostCommand::kPing, 64);
  add(HostCommand::kQuery, 4);
  add(HostCommand::kGetSessionHealth, 4);
  add(HostCommand::kGetMetrics, 6);
  add(HostCommand::kDumpFlightRecorder, 4);
}

}  // namespace demo::host
