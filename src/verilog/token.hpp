// Token vocabulary for the Verilog-2001 subset.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rtlock::verilog {

enum class TokenKind : std::uint8_t {
  // literals / names
  Identifier,
  Number,  // value + optional explicit width stored in the token

  // keywords
  KwModule,
  KwEndmodule,
  KwInput,
  KwOutput,
  KwWire,
  KwReg,
  KwAssign,
  KwAlways,
  KwBegin,
  KwEnd,
  KwIf,
  KwElse,
  KwCase,
  KwEndcase,
  KwDefault,
  KwPosedge,
  KwNegedge,    // recognized so @(negedge ...) fails with a targeted message
  KwParameter,  // module-scoped integer constants
  KwLocalparam,
  KwSigned,  // recognized so signed declarations fail with a targeted message

  // punctuation
  Hash,  // # (parameter-port header '#(...)')
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semicolon,
  Colon,
  Comma,
  Question,
  At,

  // operators
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  StarStar,
  Shl,      // <<
  Shr,      // >>
  AShr,     // >>>
  Amp,      // &
  Pipe,     // |
  Caret,    // ^
  TildeCaret,  // ~^ or ^~
  Tilde,    // ~
  Bang,     // !
  AmpAmp,   // &&
  PipePipe, // ||
  Lt,
  Gt,
  LtEq,     // <= (relational or non-blocking assign; parser decides)
  GtEq,
  EqEq,
  BangEq,
  Assign,   // =

  EndOfFile,
};

[[nodiscard]] std::string_view tokenKindName(TokenKind kind) noexcept;

struct Token {
  std::string_view text;     // identifier spelling or literal text, in the lexed source
  std::uint64_t value = 0;   // numeric value for Number tokens
  int numberWidth = 0;       // explicit size of a sized literal; 0 = unsized
  int line = 1;
  int column = 1;
  TokenKind kind = TokenKind::EndOfFile;
};

}  // namespace rtlock::verilog
