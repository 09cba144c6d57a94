// ifsyn/estimate/rate_model.hpp
//
// The timing/rate arithmetic of the paper's Sections 2-3:
//
//   Eq. 1 (feasibility):   BusRate(B) >= sum over channels of AveRate(C)
//   Eq. 2 (bus rate):      BusRate(B) = width / (cycles_per_word) bits/clock
//
// All rates are expressed in bits per clock cycle (the unit of Fig. 8);
// multiply by the clock frequency to obtain bits/second.
#pragma once

#include "spec/system.hpp"

namespace ifsyn::estimate {

/// Per-protocol timing and wire costs (paper Sec. 4 step 1).
struct ProtocolTiming {
  /// Clock cycles to move one bus word. The full handshake's two-phase
  /// rendezvous costs 2 (Eq. 2 has the divisor 2).
  int cycles_per_word = 2;
  /// Dedicated control wires (START/DONE = 2 for the full handshake).
  int control_lines = 2;
  /// Whether channels share wires and therefore need ID lines.
  bool shared_bus = true;
};

/// Timing model of each supported protocol:
///   full-handshake : 2 cycles/word, 2 control lines (START, DONE)
///   half-handshake : 1 cycle/word, 1 control line (START); receiver
///                    assumed always ready
///   fixed-delay    : `fixed_delay_cycles` cycles/word, 1 strobe line in
///                    our simulatable rendition (hardware could use 0 and
///                    count cycles; a simulation needs an observable event)
///   hardwired-port : dedicated message-wide wires per channel, 2 control
///                    lines each, no sharing and hence no ID lines
///
/// `fixed_delay_cycles` is ignored for every kind except kFixedDelay, but
/// the parameter is deliberately mandatory everywhere: an earlier version
/// defaulted it to 2 and every fixed-delay bus with a different delay was
/// silently priced at the default.
ProtocolTiming protocol_timing(spec::ProtocolKind kind,
                               int fixed_delay_cycles);

/// ceil(message_bits / width): bus words per message.
long long words_per_message(int message_bits, int width);

/// Bus words one transaction of `channel` moves under the generated
/// framing, counted from the requester's side: a write drives the
/// addr&data message; a read drives its address (one dummy word for a
/// scalar) and samples the data response.
struct TransactionWords {
  long long drives = 0;
  long long samples = 0;
};
TransactionWords transaction_words(const spec::Channel& channel, int width);

/// Eq. 2 generalized across protocols, in bits/clock.
double bus_rate(int width, spec::ProtocolKind kind, int fixed_delay_cycles);

/// Peak rate of a channel while it is actually transferring: bits moved
/// per clock during a burst = min(width, message) / cycles_per_word.
/// Design A of Fig. 8 pins ch2's peak at 10 bits/clock => width 20 under
/// the full handshake.
double peak_rate(const spec::Channel& channel, int width,
                 spec::ProtocolKind kind, int fixed_delay_cycles);

/// Clock cycles to move one complete message of the channel.
long long message_transfer_cycles(const spec::Channel& channel, int width,
                                  spec::ProtocolKind kind,
                                  int fixed_delay_cycles);

}  // namespace ifsyn::estimate
