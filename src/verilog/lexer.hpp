// Lexer for the Verilog-2001 subset.
//
// Handles identifiers (incl. escaped identifiers), sized/unsized numeric
// literals with _ separators, all supported operators, and // and /* */
// comments.  Diagnostics carry line/column positions.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "verilog/token.hpp"

namespace rtlock::verilog {

class Lexer {
 public:
  explicit Lexer(std::string_view source);

  /// Tokenize the whole input (EndOfFile-terminated).  Token texts view the
  /// source, so the tokens must not outlive it.  Throws support::Error on
  /// malformed input.
  [[nodiscard]] std::vector<Token> tokenize();

 private:
  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t lookahead = 0) const noexcept;
  char advance() noexcept;
  [[nodiscard]] bool match(char expected) noexcept;
  void skipWhitespaceAndComments();

  [[nodiscard]] Token lexIdentifierOrKeyword();
  [[nodiscard]] Token lexNumber();
  [[nodiscard]] Token lexOperator();

  [[noreturn]] void fail(const std::string& message) const;

  Token makeToken(TokenKind kind, std::string_view text = {}) const;

  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int tokenLine_ = 1;
  int tokenColumn_ = 1;
};

}  // namespace rtlock::verilog
