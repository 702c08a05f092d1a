#include "verilog/lexer.hpp"

#include <cctype>
#include <map>

#include "support/diagnostics.hpp"

namespace rtlock::verilog {

namespace {

const std::map<std::string_view, TokenKind>& keywordTable() {
  static const std::map<std::string_view, TokenKind> table{
      {"module", TokenKind::KwModule},   {"endmodule", TokenKind::KwEndmodule},
      {"input", TokenKind::KwInput},     {"output", TokenKind::KwOutput},
      {"wire", TokenKind::KwWire},       {"reg", TokenKind::KwReg},
      {"assign", TokenKind::KwAssign},   {"always", TokenKind::KwAlways},
      {"begin", TokenKind::KwBegin},     {"end", TokenKind::KwEnd},
      {"if", TokenKind::KwIf},           {"else", TokenKind::KwElse},
      {"case", TokenKind::KwCase},       {"endcase", TokenKind::KwEndcase},
      {"default", TokenKind::KwDefault}, {"posedge", TokenKind::KwPosedge},
      {"negedge", TokenKind::KwNegedge}, {"parameter", TokenKind::KwParameter},
      {"localparam", TokenKind::KwLocalparam}, {"signed", TokenKind::KwSigned},
  };
  return table;
}

[[nodiscard]] bool isIdentStart(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '$';
}

[[nodiscard]] bool isIdentBody(char c) noexcept {
  return isIdentStart(c) || std::isdigit(static_cast<unsigned char>(c)) != 0;
}

[[nodiscard]] int digitValue(char c, int base) noexcept {
  int value = -1;
  if (c >= '0' && c <= '9') value = c - '0';
  else if (c >= 'a' && c <= 'f') value = c - 'a' + 10;
  else if (c >= 'A' && c <= 'F') value = c - 'A' + 10;
  return value >= 0 && value < base ? value : -1;
}

}  // namespace

Lexer::Lexer(std::string_view source) : source_(source) {}

char Lexer::peek(std::size_t lookahead) const noexcept {
  return pos_ + lookahead < source_.size() ? source_[pos_ + lookahead] : '\0';
}

char Lexer::advance() noexcept {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) noexcept {
  if (atEnd() || peek() != expected) return false;
  advance();
  return true;
}

void Lexer::fail(const std::string& message) const {
  throw support::Error{"verilog lexer error at line " + std::to_string(tokenLine_) + ", column " +
                       std::to_string(tokenColumn_) + ": " + message};
}

Token Lexer::makeToken(TokenKind kind, std::string_view text) const {
  Token token;
  token.kind = kind;
  token.text = text;
  token.line = tokenLine_;
  token.column = tokenColumn_;
  return token;
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    if (atEnd()) return;
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n') advance();
    } else if (c == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/')) advance();
      if (atEnd()) fail("unterminated block comment");
      advance();
      advance();
    } else {
      return;
    }
  }
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> tokens;
  for (;;) {
    skipWhitespaceAndComments();
    tokenLine_ = line_;
    tokenColumn_ = column_;
    if (atEnd()) {
      tokens.push_back(makeToken(TokenKind::EndOfFile));
      return tokens;
    }
    const char c = peek();
    if (isIdentStart(c) || c == '\\') {
      tokens.push_back(lexIdentifierOrKeyword());
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '\'') {
      tokens.push_back(lexNumber());
    } else {
      tokens.push_back(lexOperator());
    }
  }
}

Token Lexer::lexIdentifierOrKeyword() {
  if (peek() == '\\') {
    // Escaped identifier: backslash to next whitespace.
    advance();
    const std::size_t start = pos_;
    while (!atEnd() && !std::isspace(static_cast<unsigned char>(peek()))) advance();
    if (pos_ == start) fail("empty escaped identifier");
    return makeToken(TokenKind::Identifier, source_.substr(start, pos_ - start));
  }
  const std::size_t start = pos_;
  while (!atEnd() && isIdentBody(peek())) advance();
  const std::string_view name = source_.substr(start, pos_ - start);
  const auto it = keywordTable().find(name);
  if (it != keywordTable().end()) return makeToken(it->second, name);
  return makeToken(TokenKind::Identifier, name);
}

Token Lexer::lexNumber() {
  const std::size_t start = pos_;
  std::uint64_t sizePrefix = 0;
  bool hasSizePrefix = false;
  bool overflow = false;

  while (!atEnd() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 || peek() == '_')) {
    const char c = advance();
    if (c == '_') continue;
    overflow = overflow || __builtin_mul_overflow(sizePrefix, 10, &sizePrefix) ||
               __builtin_add_overflow(sizePrefix, c - '0', &sizePrefix);
  }
  if (pos_ != start) hasSizePrefix = true;

  if (atEnd() || peek() != '\'') {
    // Plain decimal literal.
    if (!hasSizePrefix) fail("expected a number");
    if (overflow) fail("constant exceeds 64 bits (unsupported subset)");
    Token token = makeToken(TokenKind::Number, source_.substr(start, pos_ - start));
    token.value = sizePrefix;
    token.numberWidth = 0;  // unsized
    return token;
  }

  // Based literal: [size]'[base]digits
  advance();  // consume '
  if (atEnd()) fail("unterminated based literal");
  int base = 0;
  const char baseChar = advance();
  switch (std::tolower(static_cast<unsigned char>(baseChar))) {
    case 'b': base = 2; break;
    case 'o': base = 8; break;
    case 'd': base = 10; break;
    case 'h': base = 16; break;
    default: fail(std::string{"unknown number base '"} + baseChar + "'");
  }

  std::uint64_t value = 0;
  bool sawDigit = false;
  while (!atEnd()) {
    const char c = peek();
    if (c == '_') {
      advance();
      continue;
    }
    const int digit = digitValue(c, base);
    if (digit < 0) break;
    // Overflow check: constants above 64 bits are outside the subset.
    if (value > (~std::uint64_t{0} - static_cast<std::uint64_t>(digit)) /
                    static_cast<std::uint64_t>(base)) {
      fail("constant exceeds 64 bits (unsupported subset)");
    }
    value = value * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
    advance();
    sawDigit = true;
  }
  if (!sawDigit) fail("based literal has no digits");

  if (hasSizePrefix && (overflow || sizePrefix == 0 || sizePrefix > 64)) {
    fail("literal size must be between 1 and 64 bits");
  }

  Token token = makeToken(TokenKind::Number, source_.substr(start, pos_ - start));
  token.value = value;
  token.numberWidth = hasSizePrefix ? static_cast<int>(sizePrefix) : 0;
  return token;
}

Token Lexer::lexOperator() {
  const char c = advance();
  switch (c) {
    case '(': return makeToken(TokenKind::LParen, "(");
    case ')': return makeToken(TokenKind::RParen, ")");
    case '[': return makeToken(TokenKind::LBracket, "[");
    case ']': return makeToken(TokenKind::RBracket, "]");
    case '{': return makeToken(TokenKind::LBrace, "{");
    case '}': return makeToken(TokenKind::RBrace, "}");
    case ';': return makeToken(TokenKind::Semicolon, ";");
    case ':': return makeToken(TokenKind::Colon, ":");
    case ',': return makeToken(TokenKind::Comma, ",");
    case '?': return makeToken(TokenKind::Question, "?");
    case '@': return makeToken(TokenKind::At, "@");
    case '#': return makeToken(TokenKind::Hash, "#");
    case '+': return makeToken(TokenKind::Plus, "+");
    case '-': return makeToken(TokenKind::Minus, "-");
    case '*':
      if (match('*')) return makeToken(TokenKind::StarStar, "**");
      return makeToken(TokenKind::Star, "*");
    case '/': return makeToken(TokenKind::Slash, "/");
    case '%': return makeToken(TokenKind::Percent, "%");
    case '&':
      if (match('&')) return makeToken(TokenKind::AmpAmp, "&&");
      return makeToken(TokenKind::Amp, "&");
    case '|':
      if (match('|')) return makeToken(TokenKind::PipePipe, "||");
      return makeToken(TokenKind::Pipe, "|");
    case '^':
      if (match('~')) return makeToken(TokenKind::TildeCaret, "^~");
      return makeToken(TokenKind::Caret, "^");
    case '~':
      if (match('^')) return makeToken(TokenKind::TildeCaret, "~^");
      return makeToken(TokenKind::Tilde, "~");
    case '!':
      if (match('=')) return makeToken(TokenKind::BangEq, "!=");
      return makeToken(TokenKind::Bang, "!");
    case '=':
      if (match('=')) return makeToken(TokenKind::EqEq, "==");
      return makeToken(TokenKind::Assign, "=");
    case '<':
      if (match('<')) return makeToken(TokenKind::Shl, "<<");
      if (match('=')) return makeToken(TokenKind::LtEq, "<=");
      return makeToken(TokenKind::Lt, "<");
    case '>':
      if (match('>')) {
        if (match('>')) return makeToken(TokenKind::AShr, ">>>");
        return makeToken(TokenKind::Shr, ">>");
      }
      if (match('=')) return makeToken(TokenKind::GtEq, ">=");
      return makeToken(TokenKind::Gt, ">");
    default: fail(std::string{"unexpected character '"} + c + "'");
  }
}

}  // namespace rtlock::verilog
