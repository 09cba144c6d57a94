// Spec-language parser: declarations, statements, expressions,
// partition-driven channel derivation, bus grouping, error positions --
// and a full Fig. 3 spec that round-trips through synthesis.
#include "spec/parser.hpp"

#include <gtest/gtest.h>

#include "protocol/protocol_generator.hpp"
#include "sim/interpreter.hpp"
#include "spec/analysis.hpp"
#include "spec/printer.hpp"

namespace ifsyn::spec {
namespace {

System parse_ok(std::string_view source) {
  Result<System> result = parse_system(source);
  EXPECT_TRUE(result.is_ok()) << result.status();
  return result.is_ok() ? std::move(result).value() : System("failed");
}

Status parse_err(std::string_view source) {
  Result<System> result = parse_system(source);
  EXPECT_FALSE(result.is_ok()) << "expected a parse error";
  return result.status();
}

TEST(ParserTest, MinimalSystem) {
  System s = parse_ok("system tiny;");
  EXPECT_EQ(s.name(), "tiny");
  EXPECT_TRUE(s.variables().empty());
}

TEST(ParserTest, VariableDeclarations) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(16);
    variable N : int;
    variable M : int(16) = -5;
    variable A : array[64] of bits(8);
    variable B2 : array[4] of int(16) = [1, 2, 3];
    variable C : array[3] of bits(8) = 9;
  )");
  EXPECT_EQ(s.find_variable("X")->type, Type::bits(16));
  EXPECT_EQ(s.find_variable("N")->type, Type::integer());
  EXPECT_EQ(s.find_variable("M")->init->get().to_int(), -5);
  EXPECT_EQ(s.find_variable("A")->type, Type::array(Type::bits(8), 64));
  const Value& b2 = *s.find_variable("B2")->init;
  EXPECT_EQ(b2.at(0).to_int(), 1);
  EXPECT_EQ(b2.at(2).to_int(), 3);
  EXPECT_EQ(b2.at(3).to_int(), 0);  // unspecified -> zero
  // Scalar initializer fills every array element.
  EXPECT_EQ(s.find_variable("C")->init->at(2).to_uint(), 9u);
}

TEST(ParserTest, SignalsAndFields) {
  System s = parse_ok(R"(
    system t;
    signal B { START : 1; DONE : 1; ID : 2; DATA : 8; }
    signal STAGE { _ : 4; }
  )");
  const Signal* b = s.find_signal("B");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->field("ID")->width, 2);
  const Signal* stage = s.find_signal("STAGE");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->fields[0].name, "");  // `_` = scalar signal
}

TEST(ParserTest, StatementsRoundTripThroughPrinter) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(16);
    variable MEM : array[64] of bits(16);
    signal B { START : 1; }
    process P {
      variable AD : int(16) = 5;
      wait 3;
      X := 32;
      MEM(AD) := X + 7;
      X[7:0] := 1;
      B.START <= 1;
      wait until B.START = 0;
      wait on B.START;
      if X = 32 { AD := 1; } else if X > 40 { AD := 2; } else { AD := 3; }
      for i in 0 .. 9 { MEM(i) := i * 2; }
      while AD < 10 { AD := AD + 1; }
    }
  )");
  const std::string text = print_process(*s.find_process("P"));
  EXPECT_NE(text.find("X := 32;"), std::string::npos) << text;
  EXPECT_NE(text.find("MEM(AD) := (X + 7);"), std::string::npos);
  EXPECT_NE(text.find("X(7 downto 0) := 1;"), std::string::npos);
  EXPECT_NE(text.find("B.START <= 1;"), std::string::npos);
  EXPECT_NE(text.find("wait until (B.START = 0);"), std::string::npos);
  EXPECT_NE(text.find("wait on B.START;"), std::string::npos);
  EXPECT_NE(text.find("for i in 0 to 9 loop"), std::string::npos);
  EXPECT_NE(text.find("while (AD < 10) loop"), std::string::npos);
}

TEST(ParserTest, OperatorPrecedence) {
  System s = parse_ok(R"(
    system t;
    variable X : int;
    process P {
      X := 1 + 2 * 3;
      X := (1 + 2) * 3;
      X := 10 - 4 - 3;
      X := 7 % 4 + 1;
    }
  )");
  const Block& body = s.find_process("P")->body;
  EXPECT_EQ(body[0]->as<VarAssign>()->value->to_string(), "(1 + (2 * 3))");
  EXPECT_EQ(body[1]->as<VarAssign>()->value->to_string(), "((1 + 2) * 3)");
  EXPECT_EQ(body[2]->as<VarAssign>()->value->to_string(), "((10 - 4) - 3)");
  EXPECT_EQ(body[3]->as<VarAssign>()->value->to_string(), "((7 mod 4) + 1)");
}

TEST(ParserTest, LogicalAndComparisonOperators) {
  System s = parse_ok(R"(
    system t;
    signal B { START : 1; ID : 2; }
    variable X : int;
    process P {
      wait until B.START = 1 && B.ID = 2;
      X := !(1 > 2) || 3 /= 4;
      X := 5 and 3 or 1 xor 2;
      X := 1 & 0;
    }
  )");
  const Block& body = s.find_process("P")->body;
  EXPECT_EQ(body[0]->as<WaitUntil>()->cond->to_string(),
            "((B.START = 1) and (B.ID = 2))");
  EXPECT_EQ(body[3]->as<VarAssign>()->value->to_string(), "(1 & 0)");
}

TEST(ParserTest, NumericLiteralBases) {
  System s = parse_ok(R"(
    system t;
    variable X : int;
    process P { X := 0xff + 0b101 + 1_000; }
  )");
  auto folded = const_eval(*s.find_process("P")->body[0]->as<VarAssign>()->value);
  EXPECT_EQ(folded, 255 + 5 + 1000);
}

TEST(ParserTest, CallsWithOutArguments) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(8);
    process P {
      Helper(3 + 4, out X);
    }
  )");
  const auto* call_stmt = s.find_process("P")->body[0]->as<ProcCall>();
  ASSERT_NE(call_stmt, nullptr);
  EXPECT_EQ(call_stmt->proc, "Helper");
  ASSERT_EQ(call_stmt->args.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<ExprPtr>(call_stmt->args[0]));
  EXPECT_TRUE(std::holds_alternative<LValue>(call_stmt->args[1]));
}

TEST(ParserTest, CallVsArrayAssignDisambiguation) {
  System s = parse_ok(R"(
    system t;
    variable A : array[4] of bits(8);
    process P {
      A(2) := 7;      // array element assignment
      Notify(2);      // procedure call
    }
  )");
  EXPECT_NE(s.find_process("P")->body[0]->as<VarAssign>(), nullptr);
  EXPECT_NE(s.find_process("P")->body[1]->as<ProcCall>(), nullptr);
}

TEST(ParserTest, ModulesDeriveChannels) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(16);
    process P { X := 1; }
    module M1 { process P; }
    module M2 { variable X; }
  )");
  ASSERT_EQ(s.channels().size(), 1u);
  EXPECT_EQ(s.channels()[0]->name, "CH0");
  EXPECT_EQ(s.channels()[0]->accessor, "P");
  EXPECT_EQ(s.channels()[0]->variable, "X");
}

TEST(ParserTest, BusGroupingAllAndExplicit) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(16);
    variable Y : bits(8);
    process P { X := 1; Y := 2; }
    module M1 { process P; }
    module M2 { variable X; variable Y; }
    bus B { channels all; width 8; }
  )");
  const BusGroup* bus = s.find_bus("B");
  ASSERT_NE(bus, nullptr);
  EXPECT_EQ(bus->channel_names.size(), 2u);
  EXPECT_EQ(bus->width, 8);
}

TEST(ParserTest, BusProtocolSelection) {
  System s = parse_ok(R"(
    system t;
    variable X : bits(16);
    process P { X := 1; }
    module M1 { process P; }
    module M2 { variable X; }
    bus B { channels CH0; protocol half; }
  )");
  EXPECT_EQ(s.find_bus("B")->protocol, ProtocolKind::kHalfHandshake);
}

TEST(ParserTest, RestartingProcessAndLoop) {
  System s = parse_ok(R"(
    system t;
    signal S { _ : 1; }
    process SERVER restarts {
      wait on S;
    }
    process LOOPER {
      loop { wait 5; }
    }
  )");
  EXPECT_TRUE(s.find_process("SERVER")->restarts);
  EXPECT_NE(s.find_process("LOOPER")->body[0]->as<ForeverStmt>(), nullptr);
}

TEST(ParserTest, AcquireReleaseStatements) {
  System s = parse_ok(R"(
    system t;
    process P { acquire B; release B; }
  )");
  EXPECT_TRUE(s.find_process("P")->body[0]->as<BusLock>()->acquire);
  EXPECT_FALSE(s.find_process("P")->body[1]->as<BusLock>()->acquire);
}

// ---- error reporting ----

TEST(ParserTest, ErrorsCarryPositions) {
  Status status = parse_err("system t;\nvariable X bits(8);");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();
}

TEST(ParserTest, RejectsUnknownProtocol) {
  Status status = parse_err(R"(
    system t;
    variable X : bits(8);
    process P { X := 1; }
    module M1 { process P; }
    module M2 { variable X; }
    bus B { channels all; protocol quantum; }
  )");
  EXPECT_NE(status.message().find("unknown protocol"), std::string::npos);
}

TEST(ParserTest, RejectsBusWithUnknownChannel) {
  Status status = parse_err(R"(
    system t;
    bus B { channels CH9; }
  )");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(ParserTest, RejectsDoubleGrouping) {
  Status status = parse_err(R"(
    system t;
    variable X : bits(8);
    process P { X := 1; }
    module M1 { process P; }
    module M2 { variable X; }
    bus B1 { channels CH0; }
    bus B2 { channels CH0; }
  )");
  EXPECT_NE(status.message().find("two buses"), std::string::npos);
}

TEST(ParserTest, RejectsGarbageCharacters) {
  EXPECT_FALSE(parse_system("system t; @").is_ok());
}

TEST(ParserTest, RejectsMissingSystemHeader) {
  Status status = parse_err("variable X : bits(8);");
  EXPECT_NE(status.message().find("system"), std::string::npos);
}

// ---- end-to-end: a textual Fig. 3 through synthesis and simulation ----

constexpr const char* kFig3Source = R"(
  // The paper's Fig. 3 as a spec file.
  system fig3_text;

  variable X   : bits(16);
  variable MEM : array[64] of bits(16);

  process P {
    variable AD : int(16) = 5;
    wait 1;
    X := 32;
    MEM(AD) := X + 7;
  }

  process Q {
    variable COUNT : int(16) = 77;
    wait 2;
    MEM(60) := COUNT;
  }

  module COMP_P   { process P; }
  module COMP_MEM { variable X; variable MEM; }
  module COMP_Q   { process Q; }

  bus B { channels all; width 8; }
)";

TEST(ParserTest, TextualFig3MatchesBuilderStructure) {
  System s = parse_ok(kFig3Source);
  ASSERT_EQ(s.channels().size(), 4u);
  EXPECT_EQ(s.find_channel("CH0")->variable, "X");
  EXPECT_EQ(s.find_channel("CH0")->dir, ChannelDir::kWrite);
  EXPECT_EQ(s.find_channel("CH1")->dir, ChannelDir::kRead);
  EXPECT_EQ(s.find_channel("CH2")->addr_bits, 6);
  EXPECT_EQ(s.find_bus("B")->width, 8);
}

TEST(ParserTest, TextualFig3SynthesizesAndSimulates) {
  System refined = parse_ok(kFig3Source);
  protocol::ProtocolGenOptions options;
  options.arbitrate = true;
  protocol::ProtocolGenerator generator(options);
  ASSERT_TRUE(generator.generate_all(refined).is_ok());
  sim::SimulationRun run = sim::simulate(refined);
  ASSERT_TRUE(run.result.status.is_ok()) << run.result.status;
  EXPECT_EQ(run.interpreter->value_of("X").get().to_uint(), 32u);
  EXPECT_EQ(run.interpreter->value_of("MEM").at(5).to_uint(), 39u);
  EXPECT_EQ(run.interpreter->value_of("MEM").at(60).to_uint(), 77u);
}

}  // namespace
}  // namespace ifsyn::spec
