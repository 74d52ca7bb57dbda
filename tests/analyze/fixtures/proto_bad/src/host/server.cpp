#include "host/protocol.hpp"

namespace demo::host {

struct Server {
  void register_handlers();
  void add(HostCommand c, int max_payload);
  std::uint32_t caps() const { return kCapUsed; }
};

void Server::register_handlers() {
  add(HostCommand::kPing, 64);
  add(HostCommand::kQuery, 4);
  add(HostCommand::kQuery, 4);   // [MUST-FIRE: duplicate schema entry]
  add(HostCommand::kClash, 4);
  add(HostCommand::kGhost, 4);   // [MUST-FIRE: unknown enumerator]
}

}  // namespace demo::host
