#include "verilog/parser.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "analysis/verifier.hpp"
#include "support/diagnostics.hpp"
#include "verilog/lexer.hpp"

namespace rtlock::verilog {

namespace {

using rtl::ExprPtr;
using rtl::OpKind;
using rtl::StmtPtr;

/// Nesting cap: the height of an expression tree, and the levels the parser
/// recurses through (a parenthesis, an operand, a nested statement).  Locked
/// registry designs stay near a dozen levels (tests/verilog/roundtrip_test.cpp
/// locks each at full budget); the cap keeps hostile input off the end of the
/// stack here and in every recursive pass over the IR.
constexpr int kMaxNesting = 1024;

/// Size cap: a range's msb, the bits of a concatenation and the nodes one
/// replication clones.  Replications multiply, so without it a few dozen
/// bytes of nested `{64{...}}` grow into millions of nodes.
constexpr std::int64_t kMaxBits = std::int64_t{1} << 20;

struct BinOpInfo {
  OpKind op;
  bool rightAssoc;
};

[[nodiscard]] std::optional<BinOpInfo> binaryOpFor(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::Plus: return BinOpInfo{OpKind::Add, false};
    case TokenKind::Minus: return BinOpInfo{OpKind::Sub, false};
    case TokenKind::Star: return BinOpInfo{OpKind::Mul, false};
    case TokenKind::Slash: return BinOpInfo{OpKind::Div, false};
    case TokenKind::Percent: return BinOpInfo{OpKind::Mod, false};
    case TokenKind::StarStar: return BinOpInfo{OpKind::Pow, true};
    case TokenKind::Shl: return BinOpInfo{OpKind::Shl, false};
    case TokenKind::Shr: return BinOpInfo{OpKind::Shr, false};
    case TokenKind::AShr: return BinOpInfo{OpKind::AShr, false};
    case TokenKind::Amp: return BinOpInfo{OpKind::And, false};
    case TokenKind::Pipe: return BinOpInfo{OpKind::Or, false};
    case TokenKind::Caret: return BinOpInfo{OpKind::Xor, false};
    case TokenKind::TildeCaret: return BinOpInfo{OpKind::Xnor, false};
    case TokenKind::Lt: return BinOpInfo{OpKind::Lt, false};
    case TokenKind::Gt: return BinOpInfo{OpKind::Gt, false};
    case TokenKind::LtEq: return BinOpInfo{OpKind::Le, false};
    case TokenKind::GtEq: return BinOpInfo{OpKind::Ge, false};
    case TokenKind::EqEq: return BinOpInfo{OpKind::Eq, false};
    case TokenKind::BangEq: return BinOpInfo{OpKind::Ne, false};
    case TokenKind::AmpAmp: return BinOpInfo{OpKind::LAnd, false};
    case TokenKind::PipePipe: return BinOpInfo{OpKind::LOr, false};
    default: return std::nullopt;
  }
}

class Parser {
 public:
  Parser(std::string_view source, const ParserOptions& options)
      : options_(options), tokens_(Lexer{source}.tokenize()) {}

  rtl::Design parseDesign() {
    rtl::Design design;
    while (!check(TokenKind::EndOfFile)) {
      design.addModule(parseModule());
    }
    if (design.moduleCount() == 0) fail("input contains no modules");
    return design;
  }

  rtl::Module parseModule() {
    expect(TokenKind::KwModule, "expected 'module'");
    const std::string name{expect(TokenKind::Identifier, "expected module name").text};

    module_.emplace(name);
    module_->setKeyPortName(options_.keyPortName);
    pendingPorts_.clear();
    params_.clear();
    keyWidth_ = 0;

    if (accept(TokenKind::Hash)) parseParameterPorts();
    parsePortHeader();
    expect(TokenKind::Semicolon, "expected ';' after module header");

    while (!check(TokenKind::KwEndmodule)) {
      parseModuleItem();
    }
    expect(TokenKind::KwEndmodule, "expected 'endmodule'");

    for (const auto& pending : pendingPorts_) {
      if (!pending.second) {
        fail("port '" + pending.first + "' was never given a direction declaration");
      }
    }
    module_->setKeyWidth(keyWidth_);
    rtl::Module result = std::move(*module_);
    module_.reset();
    return result;
  }

 private:
  struct Range {
    int msb = 0;
    int lsb = 0;
    [[nodiscard]] int width() const noexcept { return msb - lsb + 1; }
  };

  /// An expression and the height of its tree (a leaf has height 1).
  struct Parsed {
    ExprPtr expr;
    int height = 1;
  };

  /// One level of parser recursion, held for the lifetime of the object.
  class Nested {
   public:
    explicit Nested(Parser& parser) : parser_(parser) {
      if (parser_.depth_ == kMaxNesting) parser_.failNesting();
      ++parser_.depth_;
    }
    ~Nested() { --parser_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& parser_;
  };

  // ---- token plumbing ----

  [[nodiscard]] const Token& peek(std::size_t lookahead = 0) const {
    const std::size_t index = std::min(cursor_ + lookahead, tokens_.size() - 1);
    return tokens_[index];
  }

  [[nodiscard]] bool check(TokenKind kind) const noexcept { return peek().kind == kind; }

  const Token& advance() {
    const Token& token = tokens_[cursor_];
    if (cursor_ + 1 < tokens_.size()) ++cursor_;
    return token;
  }

  bool accept(TokenKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }

  const Token& expect(TokenKind kind, const std::string& message) {
    if (!check(kind)) fail(message + " (got '" + describe(peek()) + "')");
    return advance();
  }

  [[nodiscard]] static std::string describe(const Token& token) {
    return std::string{token.text.empty() ? tokenKindName(token.kind) : token.text};
  }

  [[noreturn]] void fail(const std::string& message) const {
    const Token& token = peek();
    throw support::Error{"verilog parse error at line " + std::to_string(token.line) +
                         ", column " + std::to_string(token.column) + ": " + message};
  }

  [[noreturn]] void failNesting() const {
    fail("expressions and statements may nest at most " + std::to_string(kMaxNesting) +
         " levels deep");
  }

  /// `expr`, whose children are at most `childHeight` high.
  [[nodiscard]] Parsed node(ExprPtr expr, int childHeight) const {
    if (childHeight >= kMaxNesting) failNesting();
    return {std::move(expr), childHeight + 1};
  }

  // ---- module structure ----

  /// Parameter-port header: '#' already consumed; parses
  /// `( parameter [range]? NAME = const {, [parameter] [range]? NAME = const} )`.
  void parseParameterPorts() {
    expect(TokenKind::LParen, "expected '(' after '#'");
    do {
      accept(TokenKind::KwParameter);  // optional on every item after the first
      parseParameterAssignment();
    } while (accept(TokenKind::Comma));
    expect(TokenKind::RParen, "expected ')' after parameter ports");
  }

  /// One `[range]? NAME = constexpr` parameter declarator.
  void parseParameterAssignment() {
    rejectSigned();
    const Range range = check(TokenKind::LBracket) ? parseOptionalRange() : Range{-1, 0};
    const std::string name{expect(TokenKind::Identifier, "expected parameter name").text};
    if (params_.count(name) != 0) fail("parameter '" + name + "' declared twice");
    if (name == options_.keyPortName) fail("the key port name cannot be used as a parameter");
    expect(TokenKind::Assign, "expected '=' in parameter declaration");
    const std::int64_t value = parseConstExpr();
    if (value < 0) fail("negative parameter values are outside the supported subset");
    // Width -1 marks an unsized parameter: references take the unsized
    // literal width, exactly like a bare decimal literal would.
    params_.emplace(name, Parameter{value, range.msb >= 0 ? range.width() : -1});
  }

  void parsePortHeader() {
    if (!accept(TokenKind::LParen)) return;  // portless module
    if (accept(TokenKind::RParen)) return;
    // ANSI direction carry-over (Verilog-2001 §12.3.3): after an ANSI port,
    // bare names inherit the previous direction/range — `input [7:0] a, b`.
    std::optional<AnsiHead> carried;
    do {
      if (check(TokenKind::KwInput) || check(TokenKind::KwOutput)) {
        carried = parseAnsiHead();
        declareAnsiPort(*carried);
      } else if (carried) {
        declareAnsiPort(*carried);
      } else {
        const std::string name{expect(TokenKind::Identifier, "expected port name").text};
        pendingPorts_.emplace_back(name, false);
      }
    } while (accept(TokenKind::Comma));
    expect(TokenKind::RParen, "expected ')' after port list");
  }

  struct AnsiHead {
    bool isInput = true;
    bool isReg = false;
    Range range{0, 0};
  };

  AnsiHead parseAnsiHead() {
    AnsiHead head;
    head.isInput = check(TokenKind::KwInput);
    advance();
    head.isReg = accept(TokenKind::KwReg);
    if (head.isInput && head.isReg) fail("inputs cannot be declared 'reg'");
    accept(TokenKind::KwWire);
    rejectSigned();
    head.range = parseOptionalRange();
    return head;
  }

  void declareAnsiPort(const AnsiHead& head) {
    const std::string name{expect(TokenKind::Identifier, "expected port name").text};
    declareSignal(name, head.range.width(), head.isInput,
                  head.isReg ? rtl::NetKind::Reg : rtl::NetKind::Wire, /*isPort=*/true);
  }

  void rejectSigned() {
    if (check(TokenKind::KwSigned)) {
      fail("signed declarations are outside the supported subset (all arithmetic is unsigned)");
    }
  }

  Range parseOptionalRange() {
    if (!accept(TokenKind::LBracket)) return Range{0, 0};
    const auto msb = parseConstExpr();
    expect(TokenKind::Colon, "expected ':' in range");
    const auto lsb = parseConstExpr();
    expect(TokenKind::RBracket, "expected ']' after range");
    if (lsb != 0) fail("only [msb:0] ranges are supported");
    if (msb < 0 || msb > kMaxBits) fail("range msb out of supported bounds");
    return Range{static_cast<int>(msb), 0};
  }

  /// Constant expression in declarations/ranges: + - * over literals,
  /// parameters and parenthesized subexpressions, with * binding tighter
  /// than + and - (standard precedence — `1 + 2 * 8` is 17).
  /// Every literal, sum, difference and product is checked against the
  /// signed 64-bit range: an overflow is an error, never a wrap.
  std::int64_t parseConstExpr() {
    std::int64_t value = parseConstTerm();
    while (check(TokenKind::Plus) || check(TokenKind::Minus)) {
      const TokenKind op = advance().kind;
      const std::int64_t rhs = parseConstTerm();
      if (op == TokenKind::Plus ? __builtin_add_overflow(value, rhs, &value)
                                : __builtin_sub_overflow(value, rhs, &value)) {
        failConstOverflow();
      }
    }
    return value;
  }

  std::int64_t parseConstTerm() {
    std::int64_t value = parseConstPrimary();
    while (accept(TokenKind::Star)) {
      if (__builtin_mul_overflow(value, parseConstPrimary(), &value)) failConstOverflow();
    }
    return value;
  }

  [[noreturn]] void failConstOverflow() const {
    fail("constant expression overflows a signed 64-bit value");
  }

  /// A constant bit index in [0, kMaxBits], the range-msb bound, so the
  /// narrowing to int and `index + 1` cannot overflow.
  int parseConstIndex() {
    const std::int64_t value = parseConstExpr();
    if (value < 0 || value > kMaxBits) {
      fail("constant bit index " + std::to_string(value) + " out of range");
    }
    return static_cast<int>(value);
  }

  std::int64_t parseConstPrimary() {
    if (accept(TokenKind::LParen)) {
      const Nested nested{*this};
      const std::int64_t value = parseConstExpr();
      expect(TokenKind::RParen, "expected ')'");
      return value;
    }
    if (check(TokenKind::Identifier)) {
      const Token& token = advance();
      const auto it = params_.find(token.text);
      if (it == params_.end()) {
        fail("'" + std::string{token.text} +
             "' is not a declared parameter (only literals and parameters "
             "may appear in constant expressions)");
      }
      return it->second.value;
    }
    const Token& token = expect(TokenKind::Number, "expected a constant");
    if (token.value > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      failConstOverflow();
    }
    return static_cast<std::int64_t>(token.value);
  }

  void parseModuleItem() {
    switch (peek().kind) {
      case TokenKind::KwInput:
      case TokenKind::KwOutput:
      case TokenKind::KwWire:
      case TokenKind::KwReg: parseDeclaration(); break;
      case TokenKind::KwParameter:
      case TokenKind::KwLocalparam: parseParameterDecl(); break;
      case TokenKind::KwAssign: parseContAssign(); break;
      case TokenKind::KwAlways: parseAlways(); break;
      default: fail("unsupported module item");
    }
  }

  /// `parameter`/`localparam` module item (both behave as constants here).
  void parseParameterDecl() {
    advance();  // 'parameter' or 'localparam'
    do {
      parseParameterAssignment();
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semicolon, "expected ';' after parameter declaration");
  }

  void parseDeclaration() {
    const TokenKind head = advance().kind;
    bool isPortDecl = head == TokenKind::KwInput || head == TokenKind::KwOutput;
    const bool isInput = head == TokenKind::KwInput;
    bool isReg = head == TokenKind::KwReg;
    if (isPortDecl && accept(TokenKind::KwReg)) {
      if (isInput) fail("inputs cannot be declared 'reg'");
      isReg = true;
    }
    if (isPortDecl) accept(TokenKind::KwWire);
    rejectSigned();
    const Range range = parseOptionalRange();
    do {
      const std::string name{expect(TokenKind::Identifier, "expected signal name").text};
      if (isPortDecl) {
        declarePendingPort(name, range.width(), isInput, isReg);
      } else {
        const rtl::SignalId id = applyNetDeclaration(name, range.width(), isReg);
        // Net declaration assignment: `wire [7:0] s = expr;` desugars to a
        // declaration plus a continuous assignment (IEEE 1364-2001 §6.1.1).
        if (check(TokenKind::Assign)) {
          if (isReg) fail("reg initializers are not supported (use an always block)");
          advance();
          rtl::LValue lvalue;
          lvalue.signal = id;
          module_->addContAssign(lvalue, parseExpression().expr);
        }
      }
    } while (accept(TokenKind::Comma));
    expect(TokenKind::Semicolon, "expected ';' after declaration");
  }

  void declarePendingPort(const std::string& name, int width, bool isInput, bool isReg) {
    const auto it = std::find_if(pendingPorts_.begin(), pendingPorts_.end(),
                                 [&name](const auto& entry) { return entry.first == name; });
    if (it == pendingPorts_.end()) {
      fail("direction declared for '" + name + "' which is not in the port list");
    }
    if (it->second) fail("port '" + name + "' declared twice");
    it->second = true;
    declareSignal(name, width, isInput, isReg ? rtl::NetKind::Reg : rtl::NetKind::Wire,
                  /*isPort=*/true);
  }

  rtl::SignalId applyNetDeclaration(const std::string& name, int width, bool isReg) {
    // `input a; wire a;` style redeclaration upgrades/confirms an existing
    // port; otherwise this declares a fresh internal net.
    if (const auto existing = module_->findSignal(name)) {
      if (module_->signal(*existing).width != width) {
        fail("conflicting width in redeclaration of '" + name + "'");
      }
      return *existing;
    }
    if (name == options_.keyPortName) fail("key port must be declared as an input");
    if (params_.count(name) != 0) fail("'" + name + "' is already declared as a parameter");
    if (width > 64) fail("signal '" + name + "' wider than the 64-bit subset limit");
    return isReg ? module_->addReg(name, width) : module_->addWire(name, width);
  }

  void declareSignal(const std::string& name, int width, bool isInput, rtl::NetKind net,
                     bool isPort) {
    if (name == options_.keyPortName) {
      if (!isInput) fail("key port '" + name + "' must be an input");
      keyWidth_ = width;
      return;  // modelled as the module's implicit key vector
    }
    if (width > 64) fail("signal '" + name + "' wider than the 64-bit subset limit");
    if (params_.count(name) != 0) fail("port '" + name + "' is already declared as a parameter");
    rtl::Signal signal;
    signal.name = name;
    signal.width = width;
    signal.net = net;
    signal.isPort = isPort;
    signal.dir = isInput ? rtl::PortDir::Input : rtl::PortDir::Output;
    module_->addSignal(std::move(signal));
  }

  void parseContAssign() {
    // 'assign' already current token.
    advance();
    const rtl::LValue target = parseLValue();
    expect(TokenKind::Assign, "expected '=' in continuous assignment");
    ExprPtr value = parseExpression().expr;
    expect(TokenKind::Semicolon, "expected ';' after assignment");
    module_->addContAssign(target, std::move(value));
  }

  rtl::LValue parseLValue() {
    const std::string name{expect(TokenKind::Identifier, "expected assignment target").text};
    if (name == options_.keyPortName) fail("cannot assign to the key input");
    const auto id = module_->findSignal(name);
    if (!id) fail("assignment to undeclared signal '" + name + "'");
    rtl::LValue lvalue;
    lvalue.signal = *id;
    if (accept(TokenKind::LBracket)) {
      const int hi = parseConstIndex();
      const int lo = accept(TokenKind::Colon) ? parseConstIndex() : hi;
      expect(TokenKind::RBracket, "expected ']'");
      if (lo < 0 || hi < lo || hi >= module_->signal(*id).width) {
        fail("part-select out of range on '" + name + "'");
      }
      lvalue.range = std::make_pair(hi, lo);
    }
    return lvalue;
  }

  void parseAlways() {
    advance();  // 'always'
    expect(TokenKind::At, "expected '@' after 'always'");
    bool sequential = false;
    rtl::SignalId clock = 0;

    if (accept(TokenKind::LParen)) {
      if (accept(TokenKind::Star)) {
        expect(TokenKind::RParen, "expected ')'");
      } else if (accept(TokenKind::KwPosedge)) {
        const std::string clockName{
            expect(TokenKind::Identifier, "expected clock signal name").text};
        const auto id = module_->findSignal(clockName);
        if (!id) fail("undeclared clock '" + clockName + "'");
        clock = *id;
        sequential = true;
        if (check(TokenKind::Identifier) && peek().text == "or") {
          fail("multi-event sensitivity lists (async resets) are not supported — model the "
               "reset synchronously");
        }
        expect(TokenKind::RParen, "expected ')'");
      } else if (check(TokenKind::KwNegedge)) {
        fail("@(negedge ...) sensitivity lists are not supported — the subset models "
             "single-clock posedge logic");
      } else {
        fail("only @(*) and @(posedge clk) sensitivity lists are supported");
      }
    } else if (accept(TokenKind::Star)) {
      // '@*' form.
    } else {
      fail("expected '(*' or '*' after '@'");
    }

    StmtPtr body = parseStatement(sequential);
    module_->addProcess(sequential ? rtl::ProcessKind::Sequential : rtl::ProcessKind::Combinational,
                        clock, std::move(body));
  }

  StmtPtr parseStatement(bool sequential) {
    const Nested nested{*this};
    if (accept(TokenKind::KwBegin)) {
      std::vector<StmtPtr> body;
      while (!check(TokenKind::KwEnd)) body.push_back(parseStatement(sequential));
      expect(TokenKind::KwEnd, "expected 'end'");
      return rtl::makeBlock(std::move(body));
    }
    if (accept(TokenKind::KwIf)) {
      expect(TokenKind::LParen, "expected '(' after 'if'");
      ExprPtr cond = parseExpression().expr;
      expect(TokenKind::RParen, "expected ')' after if-condition");
      StmtPtr thenBranch = parseStatement(sequential);
      StmtPtr elseBranch;
      if (accept(TokenKind::KwElse)) elseBranch = parseStatement(sequential);
      return rtl::makeIf(std::move(cond), std::move(thenBranch), std::move(elseBranch));
    }
    if (accept(TokenKind::KwCase)) {
      expect(TokenKind::LParen, "expected '(' after 'case'");
      ExprPtr subject = parseExpression().expr;
      expect(TokenKind::RParen, "expected ')' after case subject");
      std::vector<rtl::CaseItem> items;
      StmtPtr defaultBody;
      while (!check(TokenKind::KwEndcase)) {
        if (accept(TokenKind::KwDefault)) {
          accept(TokenKind::Colon);
          if (defaultBody) fail("duplicate default arm");
          defaultBody = parseStatement(sequential);
          continue;
        }
        rtl::CaseItem item;
        do {
          const Token& label = expect(TokenKind::Number, "expected constant case label");
          item.labels.push_back(label.value);
        } while (accept(TokenKind::Comma));
        expect(TokenKind::Colon, "expected ':' after case label");
        item.body = parseStatement(sequential);
        items.push_back(std::move(item));
      }
      expect(TokenKind::KwEndcase, "expected 'endcase'");
      return rtl::makeCase(std::move(subject), std::move(items), std::move(defaultBody));
    }

    // Assignment statement.
    const rtl::LValue target = parseLValue();
    bool nonBlocking = false;
    if (accept(TokenKind::LtEq)) {
      nonBlocking = true;
    } else {
      expect(TokenKind::Assign, "expected '=' or '<=' in assignment");
    }
    if (sequential && !nonBlocking) {
      fail("sequential blocks must use non-blocking assignments in this subset");
    }
    if (!sequential && nonBlocking) {
      fail("combinational blocks must use blocking assignments in this subset");
    }
    ExprPtr value = parseExpression().expr;
    expect(TokenKind::Semicolon, "expected ';' after assignment");
    return rtl::makeAssign(target, std::move(value), nonBlocking);
  }

  // ---- expressions ----

  Parsed parseExpression() {
    const Nested nested{*this};
    Parsed cond = parseBinary(1);
    if (!accept(TokenKind::Question)) return cond;
    Parsed thenExpr = parseExpression();
    expect(TokenKind::Colon, "expected ':' in ternary expression");
    Parsed elseExpr = parseExpression();
    const int childHeight = std::max({cond.height, thenExpr.height, elseExpr.height});
    return node(rtl::makeTernary(std::move(cond.expr), std::move(thenExpr.expr),
                                 std::move(elseExpr.expr)),
                childHeight);
  }

  Parsed parseBinary(int minPrecedence) {
    Parsed lhs = parseUnary();
    for (;;) {
      const auto opInfo = binaryOpFor(peek().kind);
      if (!opInfo) return lhs;
      const int precedence = rtl::opPrecedence(opInfo->op);
      if (precedence < minPrecedence) return lhs;
      advance();
      const Nested nested{*this};
      Parsed rhs = parseBinary(opInfo->rightAssoc ? precedence : precedence + 1);
      const int childHeight = std::max(lhs.height, rhs.height);
      lhs = node(rtl::makeBinary(opInfo->op, std::move(lhs.expr), std::move(rhs.expr)),
                 childHeight);
    }
  }

  Parsed parseUnary() {
    rtl::UnaryOp op{};
    switch (peek().kind) {
      case TokenKind::Minus: op = rtl::UnaryOp::Neg; break;
      case TokenKind::Tilde: op = rtl::UnaryOp::BitNot; break;
      case TokenKind::Bang: op = rtl::UnaryOp::LogNot; break;
      case TokenKind::Amp: op = rtl::UnaryOp::RedAnd; break;
      case TokenKind::Pipe: op = rtl::UnaryOp::RedOr; break;
      case TokenKind::Caret: op = rtl::UnaryOp::RedXor; break;
      default: return parsePrimary();
    }
    advance();
    const Nested nested{*this};
    Parsed operand = parseUnary();
    return node(rtl::makeUnary(op, std::move(operand.expr)), operand.height);
  }

  Parsed parsePrimary() {
    if (accept(TokenKind::LParen)) {
      Parsed inner = parseExpression();
      expect(TokenKind::RParen, "expected ')'");
      return inner;
    }
    if (check(TokenKind::Number)) {
      const Token& token = advance();
      const int width = token.numberWidth > 0 ? token.numberWidth : options_.unsizedLiteralWidth;
      return {rtl::makeConstant(token.value, width)};
    }
    if (check(TokenKind::LBrace)) return parseConcatOrReplication();
    if (check(TokenKind::Identifier)) return parseReference();
    fail("expected an expression");
  }

  Parsed parseConcatOrReplication() {
    expect(TokenKind::LBrace, "expected '{'");
    // Replication: {N{expr}} — N must be a literal.
    if (check(TokenKind::Number) && peek(1).kind == TokenKind::LBrace) {
      const Token& count = advance();
      expect(TokenKind::LBrace, "expected '{' in replication");
      Parsed body = parseExpression();
      expect(TokenKind::RBrace, "expected '}' in replication");
      expect(TokenKind::RBrace, "expected '}' closing replication");
      if (count.value == 0 || count.value > 64) fail("replication count out of range");
      const auto copies = static_cast<std::int64_t>(count.value);
      if (copies * rtl::exprSize(*body.expr) > kMaxBits) {
        fail("replication clones more than " + std::to_string(kMaxBits) + " expression nodes");
      }
      if (copies * body.expr->width() > kMaxBits) {
        fail("concatenation wider than " + std::to_string(kMaxBits) + " bits");
      }
      std::vector<ExprPtr> parts;
      parts.reserve(static_cast<std::size_t>(count.value));
      for (std::uint64_t i = 0; i < count.value; ++i) parts.push_back(body.expr->clone());
      return node(rtl::makeConcat(std::move(parts)), body.height);
    }
    std::vector<ExprPtr> parts;
    int childHeight = 0;
    std::int64_t width = 0;
    do {
      Parsed part = parseExpression();
      childHeight = std::max(childHeight, part.height);
      width += part.expr->width();
      if (width > kMaxBits) fail("concatenation wider than " + std::to_string(kMaxBits) + " bits");
      parts.push_back(std::move(part.expr));
    } while (accept(TokenKind::Comma));
    expect(TokenKind::RBrace, "expected '}' after concatenation");
    return node(rtl::makeConcat(std::move(parts)), childHeight);
  }

  Parsed parseReference() {
    const std::string name{expect(TokenKind::Identifier, "expected identifier").text};
    if (const auto param = params_.find(name); param != params_.end()) {
      if (check(TokenKind::LBracket)) fail("bit-selects on parameters are not supported");
      const int width =
          param->second.width > 0 ? param->second.width : options_.unsizedLiteralWidth;
      return {rtl::makeConstant(static_cast<std::uint64_t>(param->second.value), width)};
    }
    std::optional<std::pair<int, int>> range;
    if (accept(TokenKind::LBracket)) {
      const bool paramIndex =
          check(TokenKind::Identifier) && params_.count(peek().text) != 0;
      if (!check(TokenKind::Number) && !check(TokenKind::LParen) && !paramIndex) {
        fail("only constant bit/part-selects are supported in this subset");
      }
      const int hi = parseConstIndex();
      const int lo = accept(TokenKind::Colon) ? parseConstIndex() : hi;
      expect(TokenKind::RBracket, "expected ']'");
      range = std::make_pair(hi, lo);
    }

    if (name == options_.keyPortName) {
      if (range) {
        const auto [hi, lo] = *range;
        if (lo < 0 || hi < lo) fail("bad key bit select");
        keyWidth_ = std::max(keyWidth_, hi + 1);
        return {rtl::makeKeyRef(lo, hi - lo + 1)};
      }
      if (keyWidth_ == 0) fail("bare key reference before key declaration");
      return {rtl::makeKeyRef(0, keyWidth_)};
    }

    const auto id = module_->findSignal(name);
    if (!id) fail("reference to undeclared signal '" + name + "'");
    ExprPtr ref = rtl::makeSignalRef(*id, module_->signal(*id).width);
    if (range) {
      const auto [hi, lo] = *range;
      if (lo < 0 || hi < lo || hi >= module_->signal(*id).width) {
        fail("bit/part-select out of range on '" + name + "'");
      }
      return {rtl::makeSlice(std::move(ref), hi, lo), 2};
    }
    return {std::move(ref)};
  }

  ParserOptions options_;
  std::vector<Token> tokens_;
  std::size_t cursor_ = 0;

  struct Parameter {
    std::int64_t value = 0;
    int width = -1;  // -1 = unsized (references use the unsized literal width)
  };

  std::optional<rtl::Module> module_;
  std::vector<std::pair<std::string, bool>> pendingPorts_;  // name, direction-seen
  std::map<std::string, Parameter, std::less<>> params_;
  int keyWidth_ = 0;
  int depth_ = 0;  // Nested levels open
};

}  // namespace

rtl::Design parseDesign(std::string_view source, const ParserOptions& options) {
  Parser parser{source, options};
  rtl::Design design = parser.parseDesign();
  // The grammar above rejects out-of-subset syntax; the IR verifier rejects
  // structurally broken semantics the grammar cannot see (multiple drivers,
  // driven inputs, combinational loops) with the same loud support::Error
  // policy.  Accepted modules are verified clean in every build type.
  for (std::size_t i = 0; i < design.moduleCount(); ++i) {
    analysis::requireVerified(design.module(i), "verilog");
  }
  return design;
}

rtl::Module parseModule(std::string_view source, const ParserOptions& options) {
  Parser parser{source, options};
  rtl::Module module = parser.parseModule();
  analysis::requireVerified(module, "verilog");
  return module;
}

}  // namespace rtlock::verilog
