// Wire protocol + dispatcher: frame encode/decode round trips, version
// negotiation in both directions (old client/new server and new client/
// old-style conversation), malformed-frame rejection (truncated header,
// bad CRC, unknown command, oversized payload) and payload-schema bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "host/dispatcher.hpp"
#include "host/fleet_server.hpp"
#include "host/protocol.hpp"
#include "snapshot/state_io.hpp"

namespace biosense::host {
namespace {

using snapshot::StateReader;
using snapshot::StateWriter;

FrameHeader request_header(HostCommand cmd, std::uint16_t seq = 1,
                           std::uint8_t version = kProtocolVersionCurrent) {
  FrameHeader h;
  h.version = version;
  h.command = cmd;
  h.seq = seq;
  return h;
}

DecodedFrame must_decode(const std::vector<std::uint8_t>& bytes) {
  const auto decoded = decode_frame(bytes.data(), bytes.size());
  EXPECT_TRUE(decoded.has_value())
      << "status: " << host_status_name(decoded.error());
  return *decoded;
}

TEST(Protocol, EncodeDecodeRoundTrip) {
  const std::uint8_t payload[] = {0xde, 0xad, 0xbe, 0xef};
  FrameHeader h = request_header(HostCommand::kPing, 0x1234);
  h.status = HostStatus::kOk;
  std::vector<std::uint8_t> wire;
  encode_frame(h, payload, sizeof(payload), wire);
  ASSERT_EQ(wire.size(), kHeaderSize + sizeof(payload));

  const auto frame = must_decode(wire);
  EXPECT_EQ(frame.header.version, kProtocolVersionCurrent);
  EXPECT_EQ(frame.header.command, HostCommand::kPing);
  EXPECT_EQ(frame.header.seq, 0x1234);
  ASSERT_EQ(frame.payload_len, sizeof(payload));
  EXPECT_EQ(frame.payload[0], 0xde);
  EXPECT_EQ(frame.payload[3], 0xef);
}

TEST(Protocol, DecodeRejectsTruncatedHeader) {
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kPing), nullptr, 0, wire);
  for (std::size_t n = 0; n < kHeaderSize; ++n) {
    const auto decoded = decode_frame(wire.data(), n);
    ASSERT_FALSE(decoded.has_value());
    EXPECT_EQ(decoded.error(), HostStatus::kTruncated);
  }
}

TEST(Protocol, DecodeRejectsTruncatedPayload) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kPing), payload, sizeof(payload),
               wire);
  const auto decoded = decode_frame(wire.data(), wire.size() - 3);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), HostStatus::kTruncated);
}

TEST(Protocol, DecodeRejectsBadMagic) {
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kPing), nullptr, 0, wire);
  wire[0] = 0x42;
  const auto decoded = decode_frame(wire.data(), wire.size());
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), HostStatus::kBadMagic);
}

TEST(Protocol, DecodeRejectsEverySingleBitFlipViaCrc) {
  const std::uint8_t payload[] = {0x11, 0x22, 0x33};
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kQuerySession, 7), payload,
               sizeof(payload), wire);
  // Flip each bit past the magic byte (a magic flip reports kBadMagic, a
  // length flip reports kTruncated/kOversized — all rejections).
  for (std::size_t byte = 1; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = wire;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = decode_frame(copy.data(), copy.size());
      EXPECT_FALSE(decoded.has_value())
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(Protocol, EncodeRefusesOversizedPayload) {
  const std::vector<std::uint8_t> big(kMaxPayload + 1, 0xaa);
  std::vector<std::uint8_t> wire;
  EXPECT_THROW(
      encode_frame(request_header(HostCommand::kPing), big.data(), big.size(),
                   wire),
      ConfigError);
}

TEST(Protocol, FullPayloadBuiltBehindHeaderFinalizesAndDecodes) {
  // The writer's base excludes the header placeholder, so a payload of
  // exactly kMaxPayload bytes is sendable; one byte more is not.
  std::vector<std::uint8_t> frame(kHeaderSize);
  StateWriter w(frame);
  for (std::size_t i = 0; i < kMaxPayload / 8; ++i) w.u64(i);
  ASSERT_EQ(w.size(), kMaxPayload);
  finalize_frame(request_header(HostCommand::kPing), frame);
  const auto decoded = must_decode(frame);
  EXPECT_EQ(decoded.payload_len, kMaxPayload);
  StateReader r(decoded.payload, decoded.payload_len);
  for (std::size_t i = 0; i < kMaxPayload / 8; ++i) EXPECT_EQ(r.u64(), i);
  EXPECT_TRUE(r.exhausted());

  w.u8(0);
  EXPECT_THROW(finalize_frame(request_header(HostCommand::kPing), frame),
               ConfigError);
}

// --- dispatcher-level negotiation and rejection ---------------------------

class DispatcherTest : public ::testing::Test {
 protected:
  HostStatus send(const FrameHeader& header,
                  const std::vector<std::uint8_t>& payload = {}) {
    std::vector<std::uint8_t> wire;
    encode_frame(header, payload.data(), payload.size(), wire);
    return server_.handle(wire.data(), wire.size(), response_);
  }

  DecodedFrame response_frame() { return must_decode(response_); }

  FleetServer server_;
  std::vector<std::uint8_t> response_;
};

TEST_F(DispatcherTest, NewClientOldServerNegotiation) {
  // A client speaking a future version gets kBadVersion plus the server's
  // window [min, current] so it can downgrade — the response is framed in
  // the highest version the server speaks, never the client's.
  FrameHeader h = request_header(HostCommand::kPing, 9,
                                 kProtocolVersionCurrent + 1);
  EXPECT_EQ(send(h), HostStatus::kBadVersion);
  const auto frame = response_frame();
  EXPECT_EQ(frame.header.status, HostStatus::kBadVersion);
  EXPECT_EQ(frame.header.version, kProtocolVersionCurrent);
  EXPECT_EQ(frame.header.seq, 9);
  ASSERT_EQ(frame.payload_len, 2u);
  EXPECT_EQ(frame.payload[0], kProtocolVersionMin);
  EXPECT_EQ(frame.payload[1], kProtocolVersionCurrent);
}

TEST_F(DispatcherTest, OldClientNewServerSpeaksOldVersion) {
  // A v1 client stays fully served: the server answers in v1.
  EXPECT_EQ(send(request_header(HostCommand::kGetProtocolInfo, 3,
                                kProtocolVersionMin)),
            HostStatus::kOk);
  const auto frame = response_frame();
  EXPECT_EQ(frame.header.version, kProtocolVersionMin);
  StateReader r(frame.payload, frame.payload_len);
  EXPECT_EQ(r.u8(), kProtocolVersionMin);
  EXPECT_EQ(r.u8(), kProtocolVersionCurrent);
}

TEST_F(DispatcherTest, V2CommandUnknownToV1Conversation) {
  // kServerStats was introduced at v2: a v1 request gets exactly what a
  // v1-era server would have said — unknown command.
  EXPECT_EQ(send(request_header(HostCommand::kServerStats, 4,
                                kProtocolVersionMin)),
            HostStatus::kUnknownCommand);
  EXPECT_EQ(send(request_header(HostCommand::kServerStats, 5,
                                kProtocolVersionCurrent)),
            HostStatus::kOk);
}

TEST_F(DispatcherTest, V4TelemetryCommandsUnknownToOlderConversations) {
  // The telemetry surface arrived at v4: a v3 (or older) conversation gets
  // exactly what a v3-era server would have said — unknown command — so an
  // old client degrades gracefully instead of misparsing a new payload.
  const std::vector<std::uint8_t> session_id{1, 2, 3, 4};
  const std::vector<std::uint8_t> metrics_req{0, 0, 0, 0, 0xff, 0xff};
  for (const std::uint8_t version : {std::uint8_t{2}, std::uint8_t{3}}) {
    EXPECT_EQ(send(request_header(HostCommand::kGetSessionHealth, 20,
                                  version),
                   session_id),
              HostStatus::kUnknownCommand);
    EXPECT_EQ(send(request_header(HostCommand::kGetMetrics, 21, version),
                   metrics_req),
              HostStatus::kUnknownCommand);
    EXPECT_EQ(send(request_header(HostCommand::kDumpFlightRecorder, 22,
                                  version),
                   session_id),
              HostStatus::kUnknownCommand);
  }
  // At v4 the same frames pass the version gate (and fail later for
  // reasons of their own — no session, telemetry disabled).
  EXPECT_EQ(send(request_header(HostCommand::kGetSessionHealth, 23),
                 session_id),
            HostStatus::kNoSuchSession);
  EXPECT_EQ(send(request_header(HostCommand::kGetMetrics, 24), metrics_req),
            HostStatus::kOk);
  EXPECT_EQ(send(request_header(HostCommand::kDumpFlightRecorder, 25),
                 session_id),
            HostStatus::kNoSuchSession);
}

TEST_F(DispatcherTest, UnknownCommandId) {
  EXPECT_EQ(send(request_header(static_cast<HostCommand>(0xEE))),
            HostStatus::kUnknownCommand);
  const auto frame = response_frame();
  EXPECT_EQ(frame.header.status, HostStatus::kUnknownCommand);
  EXPECT_EQ(frame.payload_len, 0u);
}

TEST_F(DispatcherTest, CorruptFrameAnsweredWithBadCrc) {
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kPing, 11), nullptr, 0, wire);
  wire[4] ^= 0x01;  // corrupt the seq byte
  EXPECT_EQ(server_.handle(wire.data(), wire.size(), response_),
            HostStatus::kBadCrc);
  // The reply is still a valid frame the client can parse.
  const auto frame = response_frame();
  EXPECT_EQ(frame.header.status, HostStatus::kBadCrc);
}

TEST_F(DispatcherTest, OversizedPayloadLengthRejected) {
  std::vector<std::uint8_t> wire;
  encode_frame(request_header(HostCommand::kPing, 2), nullptr, 0, wire);
  // Forge a payload_len beyond kMaxPayload; the frame is rejected on the
  // declared length before any CRC work.
  wire[8] = 0xff;
  wire[9] = 0xff;
  EXPECT_EQ(server_.handle(wire.data(), wire.size(), response_),
            HostStatus::kOversized);
}

TEST_F(DispatcherTest, PayloadSchemaBoundsEnforced) {
  // kQuerySession requires exactly 4 payload bytes.
  EXPECT_EQ(send(request_header(HostCommand::kQuerySession), {1, 2, 3}),
            HostStatus::kBadPayload);
  EXPECT_EQ(send(request_header(HostCommand::kQuerySession),
                 {1, 2, 3, 4, 5}),
            HostStatus::kBadPayload);
  // Well-formed but unknown session: the schema passes, the lookup fails.
  EXPECT_EQ(send(request_header(HostCommand::kQuerySession), {1, 2, 3, 4}),
            HostStatus::kNoSuchSession);
}

TEST_F(DispatcherTest, TypedErrorResponsesCarryNoPartialPayload) {
  // kGetProtocolInfo with a nonzero payload violates its schema (0, 0).
  EXPECT_EQ(send(request_header(HostCommand::kGetProtocolInfo), {0}),
            HostStatus::kBadPayload);
  EXPECT_EQ(response_frame().payload_len, 0u);
}

TEST_F(DispatcherTest, DiscoveryReportsCapabilitiesAndCommandCount) {
  EXPECT_EQ(send(request_header(HostCommand::kGetCapabilities)),
            HostStatus::kOk);
  auto frame = response_frame();
  StateReader caps(frame.payload, frame.payload_len);
  const auto bits = caps.u32();
  EXPECT_TRUE(caps.exhausted());
  EXPECT_TRUE(bits & kCapDnaSessions);
  EXPECT_TRUE(bits & kCapNeuroSessions);
  EXPECT_TRUE(bits & kCapFaultInjection);
  EXPECT_TRUE(bits & kCapReplayCache);
  EXPECT_TRUE(bits & kCapCheckpoint);
  EXPECT_TRUE(bits & kCapTelemetry);

  EXPECT_EQ(send(request_header(HostCommand::kGetProtocolInfo)),
            HostStatus::kOk);
  frame = response_frame();
  StateReader info(frame.payload, frame.payload_len);
  EXPECT_EQ(info.u8(), kProtocolVersionMin);
  EXPECT_EQ(info.u8(), kProtocolVersionCurrent);
  EXPECT_EQ(info.u8(), kHeaderSize);
  EXPECT_EQ(info.u16(), kMaxPayload);
  EXPECT_EQ(info.u16(), server_.dispatcher().commands().size());
}

}  // namespace
}  // namespace biosense::host
