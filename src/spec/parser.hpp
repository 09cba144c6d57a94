// ifsyn/spec/parser.hpp
//
// A textual front end for the specification IR, so systems can be written
// as files instead of C++ builder calls. The language is a compact
// rendering of the paper's VHDL subset:
//
//   system fig3;
//
//   variable X   : bits(16);
//   variable MEM : array[64] of bits(16);
//   signal STAGE { val : 4; }
//
//   process P {
//     variable AD : int(16) = 5;
//     wait 1;
//     X := 32;
//     MEM(AD) := X + 7;
//   }
//
//   process Q {
//     variable COUNT : int(16) = 77;
//     wait 2;
//     MEM(60) := COUNT;
//   }
//
//   module COMP_P   { process P; }
//   module COMP_MEM { variable X; variable MEM; }
//   module COMP_Q   { process Q; }
//
//   bus B { channels all; width 8; }
//
// Statements: `x := e;`, `sig.field <= e;`, `wait N;`,
// `wait until e;`, `wait on sig.field, ...;`, `if e { } else { }`,
// `for i in a .. b { }`, `while e { }`, `loop { }`,
// `Proc(e, out lv, ...);`, `acquire BUS;` / `release BUS;`.
// Expressions: || && = /= < <= > >= + - * / % ~& (concat) unary - !
// with integer literals (decimal, 0x..., 0b...), variables, array
// indexing `a(e)`, bit slices `e[hi:lo]`, and signal fields `S.F` (a bare
// identifier that names a declared signal is a signal read).
//
// After parsing, modules (if any) trigger channel derivation, and each
// `bus` declaration groups channels -- producing the same partitioned
// System the C++ builders produce.
#pragma once

#include <string_view>

#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::spec {

/// Parse a complete system specification. Derived channels are named
/// CH0, CH1, ... (Fig. 3). Errors carry line/column positions in the
/// message.
Result<System> parse_system(std::string_view source);

}  // namespace ifsyn::spec
