// Tokenizer for the Datalog surface syntax:
//
//   sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
//   up(a, b).
//   ?- sg(a, Y).
//   % line comment
//
// Identifiers starting with a lowercase letter or digit (or quoted with
// single quotes) are constants / predicate names; identifiers starting with
// an uppercase letter or '_' are variables. Comparison operators
// <, <=, >, >=, =, != are built-in predicate tokens in infix position.
//
// The lexer is a pull scanner: the parser asks for one token at a time and
// every token's text is a view into the source, so loading a program never
// materializes a token vector or a per-token string. Positions are 1-based;
// the column counts bytes since the last '\n' (a '\r' or a byte of a quoted
// constant occupies one column), so only newlines move the line.
#ifndef BINCHAIN_DATALOG_LEXER_H_
#define BINCHAIN_DATALOG_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace binchain {

enum class TokenKind {
  kLowerIdent,   // constants and predicate names (also quoted, also numbers)
  kUpperIdent,   // variables
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kIf,           // ":-"
  kQuery,        // "?-"
  kCompare,      // one of < <= > >= = !=
  kEof,
};

struct Token {
  TokenKind kind;
  /// View into the lexed source (a quoted constant's text without the
  /// quotes); valid as long as the source buffer is.
  std::string_view text;
  int line;
  int col;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  /// Scans the next token. At the end of input, and from the first
  /// unknown character or unterminated quote on, yields kEof at the
  /// stopping position; status() then reports the lex error.
  Token Next();

  /// The first lex error met so far (Ok if none).
  const Status& status() const { return status_; }

  /// Scans the rest of the input and returns the first lex error in the
  /// whole source (Ok if there is none). A caller that stops at a parse
  /// error uses this to report a later lex error instead, so the message
  /// does not depend on how far parsing got.
  Status Drain();

 private:
  int col() const { return static_cast<int>(pos_ - line_start_) + 1; }
  Token Fail(const std::string& what);

  std::string_view src_;
  size_t pos_ = 0;
  size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
  Status status_;
};

}  // namespace binchain

#endif  // BINCHAIN_DATALOG_LEXER_H_
