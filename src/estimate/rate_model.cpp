#include "estimate/rate_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ifsyn::estimate {

ProtocolTiming protocol_timing(spec::ProtocolKind kind,
                               int fixed_delay_cycles) {
  switch (kind) {
    case spec::ProtocolKind::kFullHandshake:
      return ProtocolTiming{2, 2, true};
    case spec::ProtocolKind::kHalfHandshake:
      return ProtocolTiming{1, 1, true};
    case spec::ProtocolKind::kFixedDelay:
      IFSYN_ASSERT_MSG(fixed_delay_cycles >= 1,
                       "fixed delay must be >= 1 cycle");
      return ProtocolTiming{fixed_delay_cycles, 1, true};
    case spec::ProtocolKind::kHardwiredPort:
      return ProtocolTiming{2, 2, false};
  }
  IFSYN_ASSERT(false);
  return {};
}

long long words_per_message(int message_bits, int width) {
  IFSYN_ASSERT_MSG(message_bits > 0, "message must have positive size");
  IFSYN_ASSERT_MSG(width > 0, "bus width must be positive");
  return (static_cast<long long>(message_bits) + width - 1) / width;
}

TransactionWords transaction_words(const spec::Channel& channel, int width) {
  if (!channel.is_read()) {
    return {words_per_message(channel.message_bits(), width), 0};
  }
  return {channel.addr_bits > 0
              ? words_per_message(channel.addr_bits, width)
              : 1,
          words_per_message(channel.data_bits, width)};
}

double bus_rate(int width, spec::ProtocolKind kind, int fixed_delay_cycles) {
  const ProtocolTiming timing = protocol_timing(kind, fixed_delay_cycles);
  return static_cast<double>(width) / timing.cycles_per_word;
}

double peak_rate(const spec::Channel& channel, int width,
                 spec::ProtocolKind kind, int fixed_delay_cycles) {
  const ProtocolTiming timing = protocol_timing(kind, fixed_delay_cycles);
  const int effective = std::min(width, channel.message_bits());
  return static_cast<double>(effective) / timing.cycles_per_word;
}

long long message_transfer_cycles(const spec::Channel& channel, int width,
                                  spec::ProtocolKind kind,
                                  int fixed_delay_cycles) {
  const ProtocolTiming timing = protocol_timing(kind, fixed_delay_cycles);
  return words_per_message(channel.message_bits(), width) *
         timing.cycles_per_word;
}

}  // namespace ifsyn::estimate
