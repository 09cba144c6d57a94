// Rate model: Eq. 2 bus rates, words-per-message, peak rates -- the
// arithmetic Fig. 8's numbers come from.
#include "estimate/rate_model.hpp"

#include <gtest/gtest.h>

namespace ifsyn::estimate {
namespace {

using spec::ProtocolKind;

spec::Channel flc_channel() {
  // ch1/ch2 of the FLC: 16 data + 7 address bits.
  spec::Channel ch;
  ch.name = "ch2";
  ch.data_bits = 16;
  ch.addr_bits = 7;
  ch.accesses = 128;
  return ch;
}

TEST(RateModelTest, ProtocolTimings) {
  EXPECT_EQ(protocol_timing(ProtocolKind::kFullHandshake, 2).cycles_per_word, 2);
  EXPECT_EQ(protocol_timing(ProtocolKind::kFullHandshake, 2).control_lines, 2);
  EXPECT_EQ(protocol_timing(ProtocolKind::kHalfHandshake, 2).cycles_per_word, 1);
  EXPECT_EQ(protocol_timing(ProtocolKind::kHalfHandshake, 2).control_lines, 1);
  EXPECT_EQ(protocol_timing(ProtocolKind::kFixedDelay, 5).cycles_per_word, 5);
  EXPECT_FALSE(protocol_timing(ProtocolKind::kHardwiredPort, 2).shared_bus);
}

TEST(RateModelTest, WordsPerMessageIsCeil) {
  EXPECT_EQ(words_per_message(16, 8), 2);   // Fig. 4: two 8-bit transfers
  EXPECT_EQ(words_per_message(23, 8), 3);
  EXPECT_EQ(words_per_message(23, 23), 1);
  EXPECT_EQ(words_per_message(23, 24), 1);
  EXPECT_EQ(words_per_message(1, 8), 1);
  EXPECT_EQ(words_per_message(23, 1), 23);
}

TEST(RateModelTest, TransactionWordsFollowTheGeneratedFraming) {
  spec::Channel write_scalar;
  write_scalar.dir = spec::ChannelDir::kWrite;
  write_scalar.data_bits = 16;
  auto words = [](const spec::Channel& ch, int width) {
    const TransactionWords w = transaction_words(ch, width);
    return std::make_pair(w.drives, w.samples);
  };
  EXPECT_EQ(words(write_scalar, 8), std::make_pair(2LL, 0LL));  // Fig. 4
  EXPECT_EQ(words(write_scalar, 16), std::make_pair(1LL, 0LL));

  spec::Channel write_array = write_scalar;
  write_array.addr_bits = 6;  // 22-bit addr&data message
  EXPECT_EQ(words(write_array, 8), std::make_pair(3LL, 0LL));

  spec::Channel read_scalar = write_scalar;
  read_scalar.dir = spec::ChannelDir::kRead;
  // One dummy request word, then two data words back.
  EXPECT_EQ(words(read_scalar, 8), std::make_pair(1LL, 2LL));

  spec::Channel read_array = write_array;
  read_array.dir = spec::ChannelDir::kRead;
  read_array.addr_bits = 7;
  // ceil(7/8) = 1 address word, ceil(16/8) = 2 data words.
  EXPECT_EQ(words(read_array, 8), std::make_pair(1LL, 2LL));
}

TEST(RateModelTest, BusRateEq2) {
  // BusRate = width / 2 for the full handshake (Eq. 2 in bits/clock).
  EXPECT_DOUBLE_EQ(bus_rate(8, ProtocolKind::kFullHandshake, 2), 4.0);
  EXPECT_DOUBLE_EQ(bus_rate(20, ProtocolKind::kFullHandshake, 2), 10.0);
  EXPECT_DOUBLE_EQ(bus_rate(18, ProtocolKind::kFullHandshake, 2), 9.0);
  EXPECT_DOUBLE_EQ(bus_rate(16, ProtocolKind::kFullHandshake, 2), 8.0);
  // The half handshake moves a word per clock.
  EXPECT_DOUBLE_EQ(bus_rate(8, ProtocolKind::kHalfHandshake, 2), 8.0);
}

TEST(RateModelTest, PeakRateCapsAtMessageSize) {
  spec::Channel ch = flc_channel();
  // Fig. 8 design A: peak(ch2) at width 20 is 10 bits/clock.
  EXPECT_DOUBLE_EQ(peak_rate(ch, 20, ProtocolKind::kFullHandshake, 2), 10.0);
  EXPECT_DOUBLE_EQ(peak_rate(ch, 16, ProtocolKind::kFullHandshake, 2), 8.0);
  // Beyond the message size, extra width buys nothing.
  EXPECT_DOUBLE_EQ(peak_rate(ch, 23, ProtocolKind::kFullHandshake, 2), 11.5);
  EXPECT_DOUBLE_EQ(peak_rate(ch, 64, ProtocolKind::kFullHandshake, 2), 11.5);
}

TEST(RateModelTest, MessageTransferCycles) {
  spec::Channel ch = flc_channel();
  // ceil(23/w) * 2 cycles.
  EXPECT_EQ(message_transfer_cycles(ch, 1, ProtocolKind::kFullHandshake, 2), 46);
  EXPECT_EQ(message_transfer_cycles(ch, 4, ProtocolKind::kFullHandshake, 2), 12);
  EXPECT_EQ(message_transfer_cycles(ch, 8, ProtocolKind::kFullHandshake, 2), 6);
  EXPECT_EQ(message_transfer_cycles(ch, 23, ProtocolKind::kFullHandshake, 2), 2);
  EXPECT_EQ(message_transfer_cycles(ch, 32, ProtocolKind::kFullHandshake, 2), 2);
  EXPECT_EQ(message_transfer_cycles(ch, 23, ProtocolKind::kHalfHandshake, 2), 1);
  EXPECT_EQ(message_transfer_cycles(ch, 23, ProtocolKind::kFixedDelay, 2), 2);
}

TEST(RateModelTest, InvalidInputsAssert) {
  EXPECT_THROW(words_per_message(0, 8), InternalError);
  EXPECT_THROW(words_per_message(8, 0), InternalError);
  EXPECT_THROW(protocol_timing(ProtocolKind::kFixedDelay, 0), InternalError);
}

/// Property: bus rate is monotone in width, and transfer cycles are
/// non-increasing in width with a plateau once width >= message bits --
/// the Fig. 7 shape at the model level.
class WidthMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(WidthMonotonicity, TransferCyclesMonotoneThenFlat) {
  spec::Channel ch = flc_channel();
  ch.data_bits = GetParam();
  ch.addr_bits = 7;
  long long prev = message_transfer_cycles(ch, 1, ProtocolKind::kFullHandshake, 2);
  for (int w = 2; w <= 40; ++w) {
    const long long cur =
        message_transfer_cycles(ch, w, ProtocolKind::kFullHandshake, 2);
    EXPECT_LE(cur, prev) << "width " << w;
    if (w >= ch.message_bits()) {
      EXPECT_EQ(cur, 2) << "width " << w;  // single word, 2 cycles
    }
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(DataBits, WidthMonotonicity,
                         ::testing::Values(1, 8, 16, 24));

}  // namespace
}  // namespace ifsyn::estimate
