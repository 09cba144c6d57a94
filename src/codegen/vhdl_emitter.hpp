// ifsyn/codegen/vhdl_emitter.hpp
//
// Emits the refined specification as VHDL'87-style source, matching the
// shape of the paper's Figs. 4-5: the bus record type and signal
// declaration, the generated send/receive procedures, the rewritten
// behaviors, and the variable server processes.
//
// The output targets readability and structural fidelity to the paper's
// listings (record fields START/DONE/ID/DATA, `wait until (B.START = '1')
// and (B.ID = "00")`, `txdata(8*J-1 downto 8*(J-1))`), not compilation by
// a specific VHDL tool: clocked timing is expressed as
// `wait for N * CLOCK_PERIOD` (a 10 ns constant), a lone shared bus's
// record type is Fig. 4's `HandShakeBus`, and the BusLock arbitration
// extension -- which plain VHDL'87 has no primitive for -- is emitted as
// a commented protected region.
#pragma once

#include <string>

#include "spec/system.hpp"

namespace ifsyn::codegen {

class VhdlEmitter {
 public:
  /// The record type + signal declarations for every signal in the
  /// system (top of Fig. 4).
  std::string emit_bus_declarations(const spec::System& system) const;

  /// One procedure (Fig. 4's SendCH0 / ReceiveCH0).
  std::string emit_procedure(const spec::Procedure& proc) const;

  /// One process (Fig. 5's process P / Xproc).
  std::string emit_process(const spec::Process& process) const;

  /// Whole refined system: entity/architecture wrapper, type and signal
  /// declarations, procedures, processes.
  std::string emit_system(const spec::System& system) const;

  // -- building blocks, exposed for golden tests --
  std::string emit_type(const spec::Type& type) const;
  std::string emit_expr(const spec::Expr& expr) const;
  std::string emit_stmt(const spec::Stmt& stmt, int indent) const;
  std::string emit_block(const spec::Block& block, int indent) const;

 private:
  std::string pad(int indent) const;
};

}  // namespace ifsyn::codegen
