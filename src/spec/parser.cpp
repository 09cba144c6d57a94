#include "spec/parser.hpp"

#include <cctype>
#include <set>

#include "spec/analysis.hpp"
#include "util/assert.hpp"

namespace ifsyn::spec {

namespace {

// ---- lexer ----------------------------------------------------------------

enum class TokKind {
  kEnd,
  kIdent,
  kInt,
  kPunct,  // single/multi-char operators and punctuation, text in `text`
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::int64_t value = 0;  // for kInt
  int line = 1;
  int column = 1;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_space_and_comments();
      Token token;
      token.line = line_;
      token.column = column_;
      if (at_end()) {
        token.kind = TokKind::kEnd;
        tokens.push_back(token);
        return tokens;
      }
      const char c = peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        token.kind = TokKind::kIdent;
        while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                             peek() == '_')) {
          token.text.push_back(take());
        }
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        token.kind = TokKind::kInt;
        Status status = lex_number(token);
        if (!status.is_ok()) return status;
      } else {
        token.kind = TokKind::kPunct;
        Status status = lex_punct(token);
        if (!status.is_ok()) return status;
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  bool at_end() const { return pos_ >= source_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }
  char take() {
    const char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_space_and_comments() {
    while (!at_end()) {
      if (std::isspace(static_cast<unsigned char>(peek()))) {
        take();
      } else if (peek() == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') take();
      } else if (peek() == '-' && peek(1) == '-') {
        while (!at_end() && peek() != '\n') take();
      } else {
        break;
      }
    }
  }

  Status lex_number(Token& token) {
    std::string digits;
    int base = 10;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      base = 16;
      take();
      take();
    } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
      base = 2;
      take();
      take();
    }
    while (!at_end() &&
           (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')) {
      const char c = take();
      if (c == '_') continue;
      digits.push_back(c);
    }
    if (digits.empty()) {
      return invalid_argument("empty numeric literal at line " +
                              std::to_string(token.line));
    }
    try {
      token.value = std::stoll(digits, nullptr, base);
    } catch (const std::exception&) {
      return invalid_argument("bad numeric literal '" + digits + "' at line " +
                              std::to_string(token.line));
    }
    token.text = digits;
    return Status::ok();
  }

  Status lex_punct(Token& token) {
    static const char* kTwoChar[] = {":=", "<=", ">=", "/=", "..",
                                     "&&", "||", "=>"};
    for (const char* two : kTwoChar) {
      if (peek() == two[0] && peek(1) == two[1]) {
        token.text = two;
        take();
        take();
        return Status::ok();
      }
    }
    static const std::string kSingles = ";:,.(){}[]=<>+-*/%&!~";
    const char c = peek();
    if (kSingles.find(c) == std::string::npos) {
      return invalid_argument(std::string("unexpected character '") + c +
                              "' at line " + std::to_string(line_) +
                              ", column " + std::to_string(column_));
    }
    token.text = std::string(1, take());
    return Status::ok();
  }

  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

// ---- parser ----------------------------------------------------------------

struct PendingBus {
  std::string name;
  bool all_channels = false;
  std::vector<std::string> channels;
  int width = 0;
  std::optional<ProtocolKind> protocol;
  int line = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<System> run() {
    Result<System> result = parse_spec();
    if (!result.is_ok()) return result;
    if (!error_.is_ok()) return error_;
    return result;
  }

 private:
  // -- token plumbing --
  const Token& cur() const { return tokens_[pos_]; }
  const Token& ahead(std::size_t n = 1) const {
    return tokens_[std::min(pos_ + n, tokens_.size() - 1)];
  }
  void advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool at_end() const { return cur().kind == TokKind::kEnd; }

  bool is_punct(const char* text) const {
    return cur().kind == TokKind::kPunct && cur().text == text;
  }
  bool is_ident(const char* text) const {
    return cur().kind == TokKind::kIdent && cur().text == text;
  }

  bool accept_punct(const char* text) {
    if (!is_punct(text)) return false;
    advance();
    return true;
  }
  bool accept_ident(const char* text) {
    if (!is_ident(text)) return false;
    advance();
    return true;
  }

  /// Record the first error; parsing aborts via the failed() checks.
  void fail(const std::string& message) {
    if (error_.is_ok()) {
      error_ = invalid_argument(message + " at line " +
                                std::to_string(cur().line) + ", column " +
                                std::to_string(cur().column) +
                                (cur().kind == TokKind::kEnd
                                     ? " (end of input)"
                                     : " (near '" + cur().text + "')"));
    }
  }
  bool failed() const { return !error_.is_ok(); }

  void expect_punct(const char* text) {
    if (!accept_punct(text)) fail(std::string("expected '") + text + "'");
  }
  std::string expect_ident(const char* what) {
    if (cur().kind != TokKind::kIdent) {
      fail(std::string("expected ") + what);
      return {};
    }
    std::string name = cur().text;
    advance();
    return name;
  }
  std::int64_t expect_int(const char* what) {
    if (cur().kind != TokKind::kInt) {
      fail(std::string("expected ") + what);
      return 0;
    }
    std::int64_t value = cur().value;
    advance();
    return value;
  }

  // -- grammar --

  Result<System> parse_spec() {
    if (!accept_ident("system")) {
      fail("specification must start with 'system <name>;'");
      return error_;
    }
    const std::string name = expect_ident("system name");
    expect_punct(";");
    if (failed()) return error_;

    System system(name);
    while (!at_end() && !failed()) {
      if (is_ident("variable")) {
        parse_variable_into(
            [&system](Variable v) { system.add_variable(std::move(v)); });
      } else if (is_ident("signal")) {
        parse_signal(system);
      } else if (is_ident("process")) {
        parse_process(system);
      } else if (is_ident("module")) {
        parse_module(system);
      } else if (is_ident("bus")) {
        parse_bus();
      } else {
        fail("expected a declaration (variable/signal/process/module/bus)");
      }
    }
    if (failed()) return error_;

    // Channels come from the module assignment; buses then group them.
    if (!system.modules().empty()) {
      Status status = derive_channels(system);
      if (!status.is_ok()) return status;
    }
    for (const PendingBus& pending : pending_buses_) {
      std::vector<std::string> channels = pending.channels;
      if (pending.all_channels) {
        for (const auto& ch : system.channels()) {
          if (ch->bus.empty()) channels.push_back(ch->name);
        }
      }
      if (channels.empty()) {
        return invalid_argument("bus " + pending.name +
                                " has no channels (declared at line " +
                                std::to_string(pending.line) + ")");
      }
      for (const std::string& ch_name : channels) {
        const Channel* ch = system.find_channel(ch_name);
        if (!ch) {
          return not_found("bus " + pending.name +
                           " references unknown channel " + ch_name);
        }
        if (!ch->bus.empty()) {
          return invalid_argument("channel " + ch_name +
                                  " grouped into two buses");
        }
      }
      BusGroup bus;
      bus.name = pending.name;
      bus.channel_names = std::move(channels);
      bus.width = pending.width;
      if (pending.protocol) bus.protocol = *pending.protocol;
      system.add_bus(std::move(bus));
    }

    Status status = system.validate();
    if (!status.is_ok()) return status;
    return system;
  }

  // variable NAME : type [= init] ;
  template <typename Sink>
  void parse_variable_into(const Sink& sink) {
    accept_ident("variable");
    const std::string name = expect_ident("variable name");
    expect_punct(":");
    Type type = parse_type();
    if (failed()) return;

    std::optional<Value> init;
    if (accept_punct("=")) init = parse_init(type);
    expect_punct(";");
    if (failed()) return;

    Variable variable(name, type);
    variable.init = std::move(init);
    sink(std::move(variable));
  }

  // bits(N) | int[(N)] | array[N] of <scalar>
  Type parse_type() {
    if (accept_ident("bits")) {
      expect_punct("(");
      const int width = static_cast<int>(expect_int("bit width"));
      expect_punct(")");
      if (failed() || width <= 0) {
        fail("bit width must be positive");
        return Type::bits(1);
      }
      return Type::bits(width);
    }
    if (accept_ident("int")) {
      int width = 32;
      if (accept_punct("(")) {
        width = static_cast<int>(expect_int("integer width"));
        expect_punct(")");
      }
      if (failed() || width <= 0) {
        fail("integer width must be positive");
        return Type::integer();
      }
      return Type::integer(width);
    }
    if (accept_ident("array")) {
      expect_punct("[");
      const int size = static_cast<int>(expect_int("array size"));
      expect_punct("]");
      if (!accept_ident("of")) fail("expected 'of' after array size");
      Type element = parse_type();
      if (failed() || size <= 0) {
        fail("array size must be positive");
        return Type::array(Type::bits(1), 1);
      }
      if (element.is_array()) {
        fail("nested arrays are not supported");
        return Type::array(Type::bits(1), 1);
      }
      return Type::array(element, size);
    }
    fail("expected a type (bits(N) / int / array[N] of ...)");
    return Type::bits(1);
  }

  // N  |  [ N, N, ... ]   (remaining array elements stay zero)
  Value parse_init(const Type& type) {
    Value value(type);
    if (accept_punct("[")) {
      if (!type.is_array()) {
        fail("list initializer on a scalar variable");
        return value;
      }
      int index = 0;
      if (!is_punct("]")) {
        do {
          const std::int64_t element = parse_signed_int("array element");
          if (failed()) return value;
          if (index >= type.array_size()) {
            fail("too many initializer elements");
            return value;
          }
          value.set_at(index++,
                       BitVector::from_int(type.scalar_width(), element));
        } while (accept_punct(","));
      }
      expect_punct("]");
      return value;
    }
    const std::int64_t scalar = parse_signed_int("initializer");
    if (failed()) return value;
    if (type.is_array()) {
      // Scalar init on an array fills every element.
      for (int i = 0; i < type.array_size(); ++i) {
        value.set_at(i, BitVector::from_int(type.scalar_width(), scalar));
      }
    } else {
      value.set(BitVector::from_int(type.scalar_width(), scalar));
    }
    return value;
  }

  std::int64_t parse_signed_int(const char* what) {
    const bool negative = accept_punct("-");
    const std::int64_t magnitude = expect_int(what);
    return negative ? -magnitude : magnitude;
  }

  // signal NAME { FIELD : WIDTH ; ... }   (empty field name via `_`)
  void parse_signal(System& system) {
    accept_ident("signal");
    Signal signal;
    signal.name = expect_ident("signal name");
    expect_punct("{");
    while (!failed() && !is_punct("}")) {
      SignalField field;
      field.name = expect_ident("field name");
      if (field.name == "_") field.name.clear();  // scalar signal
      expect_punct(":");
      field.width = static_cast<int>(expect_int("field width"));
      expect_punct(";");
      if (field.width <= 0) fail("field width must be positive");
      signal.fields.push_back(std::move(field));
    }
    expect_punct("}");
    if (failed()) return;
    if (signal.fields.empty()) {
      fail("signal needs at least one field");
      return;
    }
    signal_names_.insert(signal.name);
    system.add_signal(std::move(signal));
  }

  // process NAME [restarts] { locals... stmts... }
  void parse_process(System& system) {
    accept_ident("process");
    Process process;
    process.name = expect_ident("process name");
    process.restarts = accept_ident("restarts");
    expect_punct("{");
    while (!failed() && is_ident("variable")) {
      parse_variable_into([&process](Variable v) {
        process.locals.push_back(std::move(v));
      });
    }
    process.body = parse_block_until_brace();
    expect_punct("}");
    if (!failed()) system.add_process(std::move(process));
  }

  // module NAME { (process P; | variable V;)* }
  void parse_module(System& system) {
    accept_ident("module");
    Module module;
    module.name = expect_ident("module name");
    expect_punct("{");
    while (!failed() && !is_punct("}")) {
      if (accept_ident("process")) {
        module.process_names.push_back(expect_ident("process name"));
      } else if (accept_ident("variable")) {
        module.variable_names.push_back(expect_ident("variable name"));
      } else {
        fail("expected 'process NAME;' or 'variable NAME;' in module");
      }
      expect_punct(";");
    }
    expect_punct("}");
    if (!failed()) system.add_module(std::move(module));
  }

  // bus NAME { channels all; | channels a, b; width N; protocol P; }
  void parse_bus() {
    accept_ident("bus");
    PendingBus bus;
    bus.line = cur().line;
    bus.name = expect_ident("bus name");
    expect_punct("{");
    while (!failed() && !is_punct("}")) {
      if (accept_ident("channels")) {
        if (accept_ident("all")) {
          bus.all_channels = true;
        } else {
          do {
            bus.channels.push_back(expect_ident("channel name"));
          } while (accept_punct(","));
        }
        expect_punct(";");
      } else if (accept_ident("width")) {
        bus.width = static_cast<int>(expect_int("bus width"));
        expect_punct(";");
      } else if (accept_ident("protocol")) {
        const std::string protocol = expect_ident("protocol name");
        if (protocol == "full") {
          bus.protocol = ProtocolKind::kFullHandshake;
        } else if (protocol == "half") {
          bus.protocol = ProtocolKind::kHalfHandshake;
        } else if (protocol == "fixed") {
          bus.protocol = ProtocolKind::kFixedDelay;
        } else if (protocol == "wired") {
          bus.protocol = ProtocolKind::kHardwiredPort;
        } else {
          fail("unknown protocol '" + protocol +
               "' (full/half/fixed/wired)");
        }
        expect_punct(";");
      } else {
        fail("expected 'channels', 'width' or 'protocol' in bus");
      }
    }
    expect_punct("}");
    if (!failed()) pending_buses_.push_back(std::move(bus));
  }

  // -- statements --

  Block parse_block_until_brace() {
    Block block;
    while (!failed() && !is_punct("}") && !at_end()) {
      StmtPtr stmt = parse_stmt();
      if (failed()) break;
      block.push_back(std::move(stmt));
    }
    return block;
  }

  Block parse_braced_block() {
    expect_punct("{");
    Block block = parse_block_until_brace();
    expect_punct("}");
    return block;
  }

  StmtPtr parse_stmt() {
    if (is_ident("wait")) return parse_wait();
    if (is_ident("if")) return parse_if();
    if (is_ident("for")) return parse_for();
    if (is_ident("while")) return parse_while();
    if (is_ident("loop")) return parse_loop();
    if (is_ident("acquire") || is_ident("release")) return parse_bus_lock();

    // assignment, signal assignment, or procedure call: starts with IDENT
    if (cur().kind != TokKind::kIdent) {
      fail("expected a statement");
      return wait_for(0);
    }

    // Signal-field assignment: IDENT . IDENT <= expr ;
    if (ahead().kind == TokKind::kPunct && ahead().text == "." &&
        signal_names_.count(cur().text)) {
      const std::string signal = expect_ident("signal");
      expect_punct(".");
      const std::string field = expect_ident("field");
      expect_punct("<=");
      ExprPtr value = parse_expr();
      expect_punct(";");
      return sig_assign(signal, field, std::move(value));
    }
    // Scalar signal assignment: IDENT <= expr ;
    if (signal_names_.count(cur().text) && ahead().kind == TokKind::kPunct &&
        ahead().text == "<=") {
      const std::string signal = expect_ident("signal");
      expect_punct("<=");
      ExprPtr value = parse_expr();
      expect_punct(";");
      return sig_assign(signal, "", std::move(value));
    }
    // Procedure call: IDENT ( args ) ;
    if (ahead().kind == TokKind::kPunct && ahead().text == "(" &&
        looks_like_call()) {
      return parse_call();
    }

    // Variable assignment: lvalue := expr ;
    LValue target = parse_lvalue();
    expect_punct(":=");
    ExprPtr value = parse_expr();
    expect_punct(";");
    return assign(std::move(target), std::move(value));
  }

  /// Distinguish `Foo(...);` (call) from `Foo(i) := e;` (array element
  /// assignment) by scanning to the matching ')': a following ':=' means
  /// assignment.
  bool looks_like_call() const {
    std::size_t p = pos_ + 1;  // at '('
    int depth = 0;
    while (p < tokens_.size() && tokens_[p].kind != TokKind::kEnd) {
      const Token& t = tokens_[p];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++depth;
        if (t.text == ")") {
          --depth;
          if (depth == 0) {
            const Token& next = tokens_[std::min(p + 1, tokens_.size() - 1)];
            return !(next.kind == TokKind::kPunct &&
                     (next.text == ":=" || next.text == "["));
          }
        }
      }
      ++p;
    }
    return false;
  }

  StmtPtr parse_call() {
    const std::string name = expect_ident("procedure name");
    expect_punct("(");
    std::vector<CallArg> args;
    if (!is_punct(")")) {
      do {
        if (accept_ident("out")) {
          args.emplace_back(parse_lvalue());
        } else {
          args.emplace_back(parse_expr());
        }
      } while (accept_punct(","));
    }
    expect_punct(")");
    expect_punct(";");
    return call(name, std::move(args));
  }

  StmtPtr parse_wait() {
    accept_ident("wait");
    if (accept_ident("until")) {
      ExprPtr cond = parse_expr();
      expect_punct(";");
      return wait_until(std::move(cond));
    }
    if (accept_ident("on")) {
      std::vector<SignalFieldId> sensitivity;
      do {
        SignalFieldId id;
        id.signal = expect_ident("signal name");
        if (accept_punct(".")) id.field = expect_ident("field name");
        sensitivity.push_back(std::move(id));
      } while (accept_punct(","));
      expect_punct(";");
      return wait_on(std::move(sensitivity));
    }
    ExprPtr cycles = parse_expr();
    expect_punct(";");
    return wait_for(std::move(cycles));
  }

  StmtPtr parse_if() {
    accept_ident("if");
    ExprPtr cond = parse_expr();
    Block then_body = parse_braced_block();
    Block else_body;
    if (accept_ident("else")) {
      if (is_ident("if")) {
        else_body.push_back(parse_if());
      } else {
        else_body = parse_braced_block();
      }
    }
    return if_stmt(std::move(cond), std::move(then_body),
                   std::move(else_body));
  }

  StmtPtr parse_for() {
    accept_ident("for");
    const std::string var_name = expect_ident("loop variable");
    if (!accept_ident("in")) fail("expected 'in' in for loop");
    ExprPtr from = parse_expr();
    expect_punct("..");
    ExprPtr to = parse_expr();
    Block body = parse_braced_block();
    return for_stmt(var_name, std::move(from), std::move(to),
                    std::move(body));
  }

  StmtPtr parse_while() {
    accept_ident("while");
    ExprPtr cond = parse_expr();
    Block body = parse_braced_block();
    return while_stmt(std::move(cond), std::move(body));
  }

  StmtPtr parse_loop() {
    accept_ident("loop");
    Block body = parse_braced_block();
    return forever(std::move(body));
  }

  StmtPtr parse_bus_lock() {
    const bool acquire = is_ident("acquire");
    advance();
    const std::string bus = expect_ident("bus name");
    expect_punct(";");
    return acquire ? bus_acquire(bus) : bus_release(bus);
  }

  LValue parse_lvalue() {
    LValue lvalue;
    lvalue.name = expect_ident("assignable name");
    if (accept_punct("(")) {
      lvalue.index = parse_expr();
      expect_punct(")");
    }
    if (accept_punct("[")) {
      lvalue.slice_hi = parse_expr();
      expect_punct(":");
      lvalue.slice_lo = parse_expr();
      expect_punct("]");
    }
    return lvalue;
  }

  // -- expressions (precedence climbing) --
  //   1: ||        2: &&        3: = /= < <= > >= (left)
  //   4: or xor    5: and       6: & (concat)
  //   7: + -       8: * / %     unary: - ! ~

  ExprPtr parse_expr() { return parse_logical_or(); }

  ExprPtr parse_logical_or() {
    ExprPtr left = parse_logical_and();
    while (accept_punct("||")) left = lor(std::move(left), parse_logical_and());
    return left;
  }
  ExprPtr parse_logical_and() {
    ExprPtr left = parse_comparison();
    while (accept_punct("&&")) left = land(std::move(left), parse_comparison());
    return left;
  }
  ExprPtr parse_comparison() {
    ExprPtr left = parse_bit_or();
    while (true) {
      BinaryOp op;
      if (is_punct("=")) op = BinaryOp::kEq;
      else if (is_punct("/=")) op = BinaryOp::kNe;
      else if (is_punct("<")) op = BinaryOp::kLt;
      else if (is_punct("<=")) op = BinaryOp::kLe;
      else if (is_punct(">")) op = BinaryOp::kGt;
      else if (is_punct(">=")) op = BinaryOp::kGe;
      else return left;
      advance();
      left = bin_op(op, std::move(left), parse_bit_or());
    }
  }
  ExprPtr parse_bit_or() {
    ExprPtr left = parse_bit_and();
    while (true) {
      if (accept_ident("or")) {
        left = bin_op(BinaryOp::kOr, std::move(left), parse_bit_and());
      } else if (accept_ident("xor")) {
        left = bin_op(BinaryOp::kXor, std::move(left), parse_bit_and());
      } else {
        return left;
      }
    }
  }
  ExprPtr parse_bit_and() {
    ExprPtr left = parse_concat();
    while (accept_ident("and")) {
      left = bin_op(BinaryOp::kAnd, std::move(left), parse_concat());
    }
    return left;
  }
  ExprPtr parse_concat() {
    ExprPtr left = parse_additive();
    while (accept_punct("&")) {
      left = concat(std::move(left), parse_additive());
    }
    return left;
  }
  ExprPtr parse_additive() {
    ExprPtr left = parse_multiplicative();
    while (true) {
      if (accept_punct("+")) {
        left = add(std::move(left), parse_multiplicative());
      } else if (accept_punct("-")) {
        left = sub(std::move(left), parse_multiplicative());
      } else {
        return left;
      }
    }
  }
  ExprPtr parse_multiplicative() {
    ExprPtr left = parse_unary();
    while (true) {
      if (accept_punct("*")) {
        left = mul(std::move(left), parse_unary());
      } else if (accept_punct("/")) {
        left = spec::div(std::move(left), parse_unary());
      } else if (accept_punct("%")) {
        left = mod(std::move(left), parse_unary());
      } else {
        return left;
      }
    }
  }
  ExprPtr parse_unary() {
    if (accept_punct("-")) return un(UnaryOp::kNeg, parse_unary());
    if (accept_punct("!")) return un(UnaryOp::kLogNot, parse_unary());
    if (accept_punct("~")) return un(UnaryOp::kNot, parse_unary());
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_primary();
    while (accept_punct("[")) {
      ExprPtr hi = parse_expr();
      expect_punct(":");
      ExprPtr lo = parse_expr();
      expect_punct("]");
      expr = slice(std::move(expr), std::move(hi), std::move(lo));
    }
    return expr;
  }

  ExprPtr parse_primary() {
    if (cur().kind == TokKind::kInt) {
      const std::int64_t value = cur().value;
      advance();
      return lit(value);
    }
    if (accept_punct("(")) {
      ExprPtr expr = parse_expr();
      expect_punct(")");
      return expr;
    }
    if (cur().kind == TokKind::kIdent) {
      const std::string name = expect_ident("identifier");
      // Signal field: S.F (S must be a declared signal).
      if (is_punct(".") && signal_names_.count(name)) {
        advance();
        const std::string field = expect_ident("signal field");
        return sig(name, field);
      }
      // Bare declared-signal name: scalar signal read.
      if (signal_names_.count(name)) return sig(name, "");
      // Array access: NAME ( expr )
      if (accept_punct("(")) {
        ExprPtr index = parse_expr();
        expect_punct(")");
        return aref(name, std::move(index));
      }
      return var(name);
    }
    fail("expected an expression");
    return lit(0);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::set<std::string> signal_names_;
  std::vector<PendingBus> pending_buses_;
  Status error_;
};

}  // namespace

Result<System> parse_system(std::string_view source) {
  Lexer lexer(source);
  Result<std::vector<Token>> tokens = lexer.run();
  if (!tokens.is_ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.run();
}

}  // namespace ifsyn::spec
