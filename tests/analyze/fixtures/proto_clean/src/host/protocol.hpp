// Clean control for the protocol rules: every command has exactly one
// schema entry, both name functions cover every enumerator (including the
// telemetry commands), and every capability bit is referenced.
#pragma once

#include <cstdint>

namespace demo::host {

inline constexpr std::uint32_t kProtocolVersion = 4;

inline constexpr std::uint32_t kCapSessions = 1u << 0;
inline constexpr std::uint32_t kCapTelemetry = 1u << 1;

enum class HostCommand : std::uint8_t {
  kPing = 0x01,
  kQuery = 0x02,
  kGetSessionHealth = 0x19,
  kGetMetrics = 0x21,
  kDumpFlightRecorder = 0x22,
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
    case HostCommand::kGetSessionHealth:
      return "GetSessionHealth";
    case HostCommand::kGetMetrics:
      return "GetMetrics";
    case HostCommand::kDumpFlightRecorder:
      return "DumpFlightRecorder";
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
