// VHDL emission: the Fig. 4 record/procedure shapes and Fig. 5 process
// shapes, rendered from a generated refined system.
#include "codegen/vhdl_emitter.hpp"

#include <gtest/gtest.h>

#include "protocol/protocol_generator.hpp"
#include "suite/fig3_example.hpp"

namespace ifsyn::codegen {
namespace {

using namespace spec;

System refined_fig3() {
  System system = suite::make_fig3_system();
  protocol::ProtocolGenerator generator;
  Status status = generator.generate_all(system);
  EXPECT_TRUE(status.is_ok()) << status;
  return system;
}

TEST(VhdlEmitterTest, TypeRendering) {
  VhdlEmitter emitter;
  EXPECT_EQ(emitter.emit_type(Type::bits(8)), "bit_vector(7 downto 0)");
  EXPECT_EQ(emitter.emit_type(Type::bits(1)), "bit");
  EXPECT_EQ(emitter.emit_type(Type::integer()), "integer");
  EXPECT_EQ(emitter.emit_type(Type::array(Type::bits(16), 64)),
            "array (0 to 63) of bit_vector(15 downto 0)");
}

TEST(VhdlEmitterTest, BusRecordMatchesFig4) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const std::string decls = emitter.emit_bus_declarations(refined);
  // Fig. 4:
  //   type HandShakeBus is record
  //     START, DONE : bit;
  //     ID : bit_vector(1 downto 0);
  //     DATA : bit_vector(7 downto 0);
  //   end record;
  //   signal B : HandShakeBus;
  EXPECT_NE(decls.find("type HandShakeBus is record"), std::string::npos)
      << decls;
  EXPECT_NE(decls.find("START : bit;"), std::string::npos);
  EXPECT_NE(decls.find("DONE : bit;"), std::string::npos);
  EXPECT_NE(decls.find("ID : bit_vector(1 downto 0);"), std::string::npos);
  EXPECT_NE(decls.find("DATA : bit_vector(7 downto 0);"), std::string::npos);
  EXPECT_NE(decls.find("signal B : HandShakeBus;"), std::string::npos);
}

TEST(VhdlEmitterTest, SendProcedureMatchesFig4Shape) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const Procedure* send = refined.find_procedure("SendCH0");
  ASSERT_NE(send, nullptr);
  const std::string text = emitter.emit_procedure(*send);
  EXPECT_NE(text.find(
                "procedure SendCH0(txdata : in bit_vector(15 downto 0)) is"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("B.ID <= \"00\";"), std::string::npos);
  EXPECT_NE(text.find("for J in 1 to 2 loop"), std::string::npos);
  EXPECT_NE(text.find("B.DATA <= txdata(((8 * J) - 1) downto (8 * (J - 1)));"),
            std::string::npos);
  EXPECT_NE(text.find("B.START <= '1';"), std::string::npos);
  EXPECT_NE(text.find("wait until (B.DONE = '1');"), std::string::npos);
  EXPECT_NE(text.find("B.START <= '0';"), std::string::npos);
  EXPECT_NE(text.find("end SendCH0;"), std::string::npos);
}

TEST(VhdlEmitterTest, ReceiveGuardUsesCharacterAndStringLiterals) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const Procedure* serve = refined.find_procedure("ServeCH0");
  ASSERT_NE(serve, nullptr);
  const std::string text = emitter.emit_procedure(*serve);
  // Fig. 4: wait until (B.START = '1') and (B.ID = "00");
  EXPECT_NE(text.find("wait until ((B.START = '1') and (B.ID = \"00\"));"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("B.DONE <= '1';"), std::string::npos);
}

TEST(VhdlEmitterTest, RewrittenProcessMatchesFig5) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const std::string text = emitter.emit_process(*refined.find_process("P"));
  EXPECT_NE(text.find("P : process"), std::string::npos) << text;
  EXPECT_NE(text.find("SendCH0(32);"), std::string::npos);
  EXPECT_NE(text.find("ReceiveCH1(X_tmp0);"), std::string::npos);
  EXPECT_NE(text.find("SendCH2(AD"), std::string::npos);
  // One-shot behaviors end with a final wait in VHDL.
  EXPECT_NE(text.find("wait;"), std::string::npos);
  EXPECT_NE(text.find("end process P;"), std::string::npos);
}

TEST(VhdlEmitterTest, ServerProcessDispatchesLikeFig5) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const std::string text =
      emitter.emit_process(*refined.find_process("MEMproc"));
  EXPECT_NE(text.find("MEMproc : process"), std::string::npos) << text;
  EXPECT_NE(text.find("elsif"), std::string::npos);  // flattened dispatch
  EXPECT_NE(text.find("ServeCH2();"), std::string::npos);
  EXPECT_NE(text.find("ServeCH3();"), std::string::npos);
  EXPECT_NE(text.find("wait on B.START;"), std::string::npos);
}

TEST(VhdlEmitterTest, WholeSystemIsSelfContained) {
  VhdlEmitter emitter;
  System refined = refined_fig3();
  const std::string text = emitter.emit_system(refined);
  EXPECT_NE(text.find("entity fig3_sys is"), std::string::npos);
  EXPECT_NE(text.find("architecture refined of fig3_sys is"),
            std::string::npos);
  EXPECT_NE(text.find("constant CLOCK_PERIOD : time := 10 ns;"),
            std::string::npos);
  EXPECT_NE(text.find("shared variable MEM"), std::string::npos);
  EXPECT_NE(text.find("end refined;"), std::string::npos);
  // All four channels' procedures are present.
  for (const char* name :
       {"SendCH0", "ReceiveCH1", "SendCH2", "SendCH3", "ServeCH0",
        "ServeCH1", "ServeCH2", "ServeCH3"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(VhdlEmitterTest, HardwiredPortsEmitPerChannelSignals) {
  System system = suite::make_fig3_system();
  protocol::ProtocolGenOptions options;
  options.protocol = ProtocolKind::kHardwiredPort;
  protocol::ProtocolGenerator generator(options);
  ASSERT_TRUE(generator.generate_all(system).is_ok());
  VhdlEmitter emitter;
  const std::string decls = emitter.emit_bus_declarations(system);
  // Four dedicated port records, no shared HandShakeBus.
  EXPECT_EQ(decls.find("HandShakeBus"), std::string::npos) << decls;
  for (const char* name : {"B_CH0_t", "B_CH1_t", "B_CH2_t", "B_CH3_t"}) {
    EXPECT_NE(decls.find(name), std::string::npos) << name;
  }
  // The write port to X is message-wide (16 bits, single word).
  EXPECT_NE(decls.find("DATA : bit_vector(15 downto 0);"),
            std::string::npos);
}

TEST(VhdlEmitterTest, StrobeProtocolEmitsParityAssignments) {
  System system = suite::make_fig3_system();
  protocol::ProtocolGenOptions options;
  options.protocol = ProtocolKind::kHalfHandshake;
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  ASSERT_TRUE(generator.generate_all(system).is_ok());
  VhdlEmitter emitter;
  const std::string text =
      emitter.emit_procedure(*system.find_procedure("SendCH0"));
  EXPECT_NE(text.find("B.START <= (J mod 2);"), std::string::npos) << text;
  EXPECT_EQ(text.find("B.DONE"), std::string::npos);  // no ack line
}

TEST(VhdlEmitterTest, WaitForUsesClockConstant) {
  VhdlEmitter emitter;
  EXPECT_EQ(emitter.emit_stmt(*wait_for(2), 0),
            "wait for 2 * CLOCK_PERIOD;\n");
}

TEST(VhdlEmitterTest, BusLockEmitsComment) {
  VhdlEmitter emitter;
  const std::string text = emitter.emit_stmt(*bus_acquire("B"), 0);
  EXPECT_NE(text.find("-- acquire bus B"), std::string::npos);
}

}  // namespace
}  // namespace ifsyn::codegen
