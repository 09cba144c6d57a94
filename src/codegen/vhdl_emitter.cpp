#include "codegen/vhdl_emitter.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace ifsyn::codegen {

using namespace spec;

namespace {

/// Record type name for shared buses (Fig. 4's "HandShakeBus").
constexpr const char* kBusTypeName = "HandShakeBus";
constexpr const char* kClockConstant = "CLOCK_PERIOD";
constexpr std::size_t kIndentWidth = 2;

}  // namespace

std::string VhdlEmitter::pad(int indent) const {
  return std::string(static_cast<std::size_t>(indent) * kIndentWidth, ' ');
}

std::string VhdlEmitter::emit_type(const Type& type) const {
  std::ostringstream os;
  switch (type.kind()) {
    case Type::Kind::kBits:
      if (type.scalar_width() == 1) {
        os << "bit";
      } else {
        os << "bit_vector(" << type.scalar_width() - 1 << " downto 0)";
      }
      break;
    case Type::Kind::kInt:
      os << "integer";
      break;
    case Type::Kind::kArray:
      os << "array (0 to " << type.array_size() - 1 << ") of "
         << emit_type(type.element());
      break;
  }
  return os.str();
}

std::string VhdlEmitter::emit_expr(const Expr& expr) const {
  std::ostringstream os;
  if (const auto* e = expr.as<IntLit>()) {
    os << e->value;
  } else if (const auto* e = expr.as<BitsLit>()) {
    if (e->value.width() == 1) {
      os << "'" << e->value.to_binary_string() << "'";
    } else {
      os << '"' << e->value.to_binary_string() << '"';
    }
  } else if (const auto* e = expr.as<VarRef>()) {
    os << e->name;
  } else if (const auto* e = expr.as<ArrayRef>()) {
    os << e->name << "(" << emit_expr(*e->index) << ")";
  } else if (const auto* e = expr.as<SliceExpr>()) {
    os << emit_expr(*e->base) << "(" << emit_expr(*e->hi) << " downto "
       << emit_expr(*e->lo) << ")";
  } else if (const auto* e = expr.as<SignalRef>()) {
    os << e->signal;
    if (!e->field.empty()) os << "." << e->field;
  } else if (const auto* e = expr.as<UnaryExpr>()) {
    os << "(" << unary_op_name(e->op) << " " << emit_expr(*e->operand) << ")";
  } else if (const auto* e = expr.as<BinaryExpr>()) {
    // Comparisons against the 0/1 integer literals on 1-bit signals read
    // as VHDL '0'/'1' character literals.
    auto operand = [this, e](const Expr& side, const Expr& other) {
      const auto* il = side.as<IntLit>();
      const bool other_is_bit =
          other.as<SignalRef>() != nullptr &&
          (e->op == BinaryOp::kEq || e->op == BinaryOp::kNe);
      if (il && other_is_bit && (il->value == 0 || il->value == 1)) {
        return std::string(il->value ? "'1'" : "'0'");
      }
      return emit_expr(side);
    };
    os << "(" << operand(*e->lhs, *e->rhs) << " " << binary_op_name(e->op)
       << " " << operand(*e->rhs, *e->lhs) << ")";
  } else {
    IFSYN_ASSERT(false);
  }
  return os.str();
}

std::string VhdlEmitter::emit_stmt(const Stmt& stmt, int indent) const {
  std::ostringstream os;
  const std::string in = pad(indent);

  if (const auto* s = stmt.as<VarAssign>()) {
    os << in << s->target.to_string() << " := " << emit_expr(*s->value)
       << ";\n";
  } else if (const auto* s = stmt.as<SignalAssign>()) {
    os << in << s->signal;
    if (!s->field.empty()) os << "." << s->field;
    // Render 0/1 integer literals onto 1-bit fields as '0'/'1'.
    if (const auto* il = s->value->as<IntLit>();
        il && (il->value == 0 || il->value == 1)) {
      os << " <= '" << il->value << "';\n";
    } else {
      os << " <= " << emit_expr(*s->value) << ";\n";
    }
  } else if (const auto* s = stmt.as<WaitUntil>()) {
    os << in << "wait until " << emit_expr(*s->cond) << ";\n";
  } else if (const auto* s = stmt.as<WaitOn>()) {
    os << in << "wait on ";
    for (std::size_t i = 0; i < s->sensitivity.size(); ++i) {
      if (i) os << ", ";
      os << s->sensitivity[i].signal;
      if (!s->sensitivity[i].field.empty())
        os << "." << s->sensitivity[i].field;
    }
    os << ";\n";
  } else if (const auto* s = stmt.as<WaitFor>()) {
    os << in << "wait for " << emit_expr(*s->cycles) << " * "
       << kClockConstant << ";\n";
  } else if (const auto* s = stmt.as<IfStmt>()) {
    os << in << "if " << emit_expr(*s->cond) << " then\n"
       << emit_block(s->then_body, indent + 1);
    // elsif chains are nested single-if else bodies; flatten for
    // readability (matches Fig. 5's if/elsif dispatch).
    const Block* else_body = &s->else_body;
    while (else_body->size() == 1) {
      const auto* nested = (*else_body)[0]->as<IfStmt>();
      if (!nested) break;
      os << in << "elsif " << emit_expr(*nested->cond) << " then\n"
         << emit_block(nested->then_body, indent + 1);
      else_body = &nested->else_body;
    }
    if (!else_body->empty()) {
      os << in << "else\n" << emit_block(*else_body, indent + 1);
    }
    os << in << "end if;\n";
  } else if (const auto* s = stmt.as<ForStmt>()) {
    os << in << "for " << s->var << " in " << emit_expr(*s->from) << " to "
       << emit_expr(*s->to) << " loop\n"
       << emit_block(s->body, indent + 1) << in << "end loop;\n";
  } else if (const auto* s = stmt.as<WhileStmt>()) {
    os << in << "while " << emit_expr(*s->cond) << " loop\n"
       << emit_block(s->body, indent + 1) << in << "end loop;\n";
  } else if (const auto* s = stmt.as<ForeverStmt>()) {
    os << in << "loop\n"
       << emit_block(s->body, indent + 1) << in << "end loop;\n";
  } else if (const auto* s = stmt.as<ProcCall>()) {
    os << in << s->proc << "(";
    for (std::size_t i = 0; i < s->args.size(); ++i) {
      if (i) os << ", ";
      if (const auto* e = std::get_if<ExprPtr>(&s->args[i])) {
        os << emit_expr(**e);
      } else {
        os << std::get<LValue>(s->args[i]).to_string();
      }
    }
    os << ");\n";
  } else if (const auto* s = stmt.as<BusLock>()) {
    os << in << "-- " << (s->acquire ? "acquire" : "release") << " bus "
       << s->bus << " (arbitration extension; no VHDL'87 primitive)\n";
  } else {
    IFSYN_ASSERT(false);
  }
  return os.str();
}

std::string VhdlEmitter::emit_block(const Block& block, int indent) const {
  std::string out;
  for (const auto& stmt : block) out += emit_stmt(*stmt, indent);
  return out;
}

std::string VhdlEmitter::emit_bus_declarations(const System& system) const {
  std::ostringstream os;
  for (const auto& sig : system.signals()) {
    if (sig->fields.size() == 1 && sig->fields[0].name.empty()) {
      os << "signal " << sig->name << " : "
         << emit_type(Type::bits(sig->fields[0].width)) << ";\n";
      continue;
    }
    // Fig. 4: type HandShakeBus is record ... end record;
    const std::string type_name =
        system.signals().size() == 1 ? std::string(kBusTypeName)
                                     : sig->name + "_t";
    os << "type " << type_name << " is record\n";
    for (const auto& f : sig->fields) {
      os << pad(1) << f.name << " : " << emit_type(Type::bits(f.width))
         << ";\n";
    }
    os << "end record;\n";
    os << "signal " << sig->name << " : " << type_name << ";\n\n";
  }
  return os.str();
}

std::string VhdlEmitter::emit_procedure(const Procedure& proc) const {
  std::ostringstream os;
  os << "procedure " << proc.name << "(";
  for (std::size_t i = 0; i < proc.params.size(); ++i) {
    if (i) os << "; ";
    const Param& p = proc.params[i];
    os << p.name << " : " << (p.dir == ParamDir::kIn ? "in " : "out ")
       << emit_type(p.type);
  }
  os << ") is\n";
  for (const auto& local : proc.locals) {
    os << pad(1) << "variable " << local.name << " : "
       << emit_type(local.type) << ";\n";
  }
  os << "begin\n" << emit_block(proc.body, 1) << "end " << proc.name << ";\n";
  return os.str();
}

std::string VhdlEmitter::emit_process(const Process& process) const {
  std::ostringstream os;
  os << process.name << " : process\n";
  for (const auto& local : process.locals) {
    os << pad(1) << "variable " << local.name << " : "
       << emit_type(local.type) << ";\n";
  }
  os << "begin\n" << emit_block(process.body, 1);
  // A VHDL process restarts after its last statement; one-shot behaviors
  // need a final wait. Processes ending in an infinite loop (the
  // generated servers) never reach the end, so the wait would be dead.
  const bool ends_in_forever =
      !process.body.empty() &&
      process.body.back()->as<ForeverStmt>() != nullptr;
  if (!process.restarts && !ends_in_forever) {
    os << pad(1) << "wait;  -- one-shot behavior\n";
  }
  os << "end process " << process.name << ";\n";
  return os.str();
}

std::string VhdlEmitter::emit_system(const System& system) const {
  std::ostringstream os;
  os << "-- Refined specification generated by ifsyn protocol generation\n";
  os << "-- (Narayan & Gajski, \"Protocol Generation for Communication "
        "Channels\", DAC 1994)\n\n";
  os << "entity " << system.name() << "_sys is\nend " << system.name()
     << "_sys;\n\n";
  os << "architecture refined of " << system.name() << "_sys is\n\n";
  os << "constant " << kClockConstant << " : time := 10 ns;\n\n";
  os << emit_bus_declarations(system);

  for (const auto& v : system.variables()) {
    // System-level variables become shared signals of the architecture in
    // VHDL; their access serialization is what the generated server
    // processes provide.
    if (v->type.is_array()) {
      os << "type " << v->name << "_t is " << emit_type(v->type) << ";\n"
         << "shared variable " << v->name << " : " << v->name << "_t;\n";
    } else {
      os << "shared variable " << v->name << " : " << emit_type(v->type)
         << ";\n";
    }
  }
  os << "\n";

  for (const auto& p : system.procedures()) {
    os << emit_procedure(*p) << "\n";
  }
  os << "begin\n\n";
  for (const auto& p : system.processes()) {
    os << emit_process(*p) << "\n";
  }
  os << "end refined;\n";
  return os.str();
}

}  // namespace ifsyn::codegen
