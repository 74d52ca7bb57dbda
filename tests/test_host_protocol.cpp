// Wire protocol + dispatcher: frame encode/decode round trips, the one
// protocol version (any other version byte is refused), malformed-frame
// rejection (truncated header, bad CRC, unknown command, oversized
// payload) and payload-schema bounds.
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
                           std::uint8_t version = kProtocolVersion) {
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
  EXPECT_EQ(frame.header.version, kProtocolVersion);
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

// --- dispatcher-level rejection ---------------------------------------------

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

TEST_F(DispatcherTest, ForeignVersionRefusedWithoutPayload) {
  // The server speaks one version. Any other version byte, older or
  // newer, gets kBadVersion with no payload; the reply header's version
  // byte names the version the server speaks.
  for (const std::uint8_t version :
       {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3},
        std::uint8_t{kProtocolVersion + 1}, std::uint8_t{0xff}}) {
    EXPECT_EQ(send(request_header(HostCommand::kPing, 9, version)),
              HostStatus::kBadVersion);
    const auto frame = response_frame();
    EXPECT_EQ(frame.header.status, HostStatus::kBadVersion);
    EXPECT_EQ(frame.header.version, kProtocolVersion);
    EXPECT_EQ(frame.header.seq, 9);
    EXPECT_EQ(frame.payload_len, 0u);
  }
}

TEST_F(DispatcherTest, CreateRequiresThePresetByte) {
  // [id u32, kind u8, rows u16, cols u16, seed u64, pool u16, ring u16,
  // preset u8] = 22 bytes; the 21-byte form without the preset is refused.
  std::vector<std::uint8_t> create;
  StateWriter w(create);
  w.u32(1);
  w.u8(0);  // neuro
  w.u16(8);
  w.u16(8);
  w.u64(7);
  w.u16(4);
  w.u16(8);
  const std::vector<std::uint8_t> no_preset = create;
  w.u8(0);
  ASSERT_EQ(create.size(), 22u);
  EXPECT_EQ(send(request_header(HostCommand::kCreateSession, 1), no_preset),
            HostStatus::kBadPayload);
  EXPECT_EQ(send(request_header(HostCommand::kCreateSession, 2), create),
            HostStatus::kOk);
}

TEST_F(DispatcherTest, UnknownCommandId) {
  // 0x01 and 0x02 were the retired discovery commands; the table is fixed.
  for (const std::uint16_t id :
       {std::uint16_t{0x01}, std::uint16_t{0x02}, std::uint16_t{0xEE}}) {
    EXPECT_EQ(send(request_header(static_cast<HostCommand>(id))),
              HostStatus::kUnknownCommand)
        << "id " << id;
    const auto frame = response_frame();
    EXPECT_EQ(frame.header.status, HostStatus::kUnknownCommand);
    EXPECT_EQ(frame.payload_len, 0u);
  }
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
  for (const HostCommand cmd :
       {HostCommand::kQuerySession, HostCommand::kGetSessionHealth,
        HostCommand::kDumpFlightRecorder}) {
    EXPECT_EQ(send(request_header(cmd), {1, 2, 3, 4}),
              HostStatus::kNoSuchSession);
  }
}

TEST_F(DispatcherTest, TypedErrorResponsesCarryNoPartialPayload) {
  // kServerStats with a nonzero payload violates its schema (0, 0).
  EXPECT_EQ(send(request_header(HostCommand::kServerStats), {0}),
            HostStatus::kBadPayload);
  EXPECT_EQ(response_frame().payload_len, 0u);
}

}  // namespace
}  // namespace biosense::host
