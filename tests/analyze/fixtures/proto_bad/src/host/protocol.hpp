// Seeded violations: proto-schema (duplicate wire value, missing entry,
// duplicate entry, unknown enumerator), proto-caps (unreferenced
// capability bit), proto-names (enumerator missing from
// host_command_name). kGetMetrics models a telemetry command that was
// added to the enum but wired nowhere else.
#pragma once

#include <cstdint>

namespace demo::host {

inline constexpr std::uint32_t kProtocolVersion = 4;

inline constexpr std::uint32_t kCapUsed = 1u << 0;
inline constexpr std::uint32_t kCapUnused = 1u << 1;  // [MUST-FIRE: proto-caps]

enum class HostCommand : std::uint8_t {
  kPing = 0x01,
  kQuery = 0x02,
  kClash = 0x02,  // [MUST-FIRE: duplicate wire value]
  kOrphan = 0x03,  // [MUST-FIRE: no schema entry]
  kGetMetrics = 0x21,  // [MUST-FIRE: no schema entry, no name case]
};

enum class HostStatus : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,
};

inline const char* host_command_name(HostCommand c) {
  switch (c) {
    case HostCommand::kPing:
      return "Ping";
    case HostCommand::kQuery:
      return "Query";
    case HostCommand::kClash:
      return "Clash";
    // [MUST-FIRE: kOrphan unhandled -> proto-names]
    default:
      return "?";
  }
}

inline const char* host_status_name(HostStatus s) {
  switch (s) {
    case HostStatus::kOk:
      return "Ok";
    case HostStatus::kBadFrame:
      return "BadFrame";
    default:
      return "?";
  }
}

}  // namespace demo::host
