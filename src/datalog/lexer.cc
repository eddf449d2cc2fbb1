#include "datalog/lexer.h"

#include <array>
#include <cstdint>
#include <string>

namespace binchain {
namespace {

enum : uint8_t {
  kIdentChar = 1,   // [A-Za-z0-9_-]
  kUpperStart = 2,  // [A-Z_]: starts a variable
};

// ASCII classes (the "C" locale's isalnum/isupper); bytes >= 0x80 are in
// no class.
constexpr std::array<uint8_t, 256> MakeCharClass() {
  std::array<uint8_t, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentChar | kUpperStart;
  t['_'] = kIdentChar | kUpperStart;
  t['-'] = kIdentChar;
  return t;
}
constexpr std::array<uint8_t, 256> kCharClass = MakeCharClass();

uint8_t ClassOf(char c) { return kCharClass[static_cast<unsigned char>(c)]; }

}  // namespace

Token Lexer::Fail(const std::string& what) {
  status_ = Status::InvalidArgument("lex error at " + std::to_string(line_) +
                                    ":" + std::to_string(col()) + ": " + what);
  return Token{TokenKind::kEof, {}, line_, col()};
}

Token Lexer::Next() {
  if (!status_.ok()) return Token{TokenKind::kEof, {}, line_, col()};
  const size_t n = src_.size();
  while (pos_ < n) {
    const char c = src_[pos_];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos_;
      continue;
    }
    if (c == '\n') {
      ++line_;
      line_start_ = ++pos_;
      continue;
    }
    if (c == '%') {  // comment to end of line; the '\n' is scanned above
      while (pos_ < n && src_[pos_] != '\n') ++pos_;
      continue;
    }
    break;
  }
  Token tok{TokenKind::kEof, {}, line_, col()};
  if (pos_ >= n) return tok;

  const size_t start = pos_;
  const char c = src_[pos_];
  const char c1 = pos_ + 1 < n ? src_[pos_ + 1] : '\0';
  size_t len = 1;
  switch (c) {
    case '(':
      tok.kind = TokenKind::kLParen;
      break;
    case ')':
      tok.kind = TokenKind::kRParen;
      break;
    case ',':
      tok.kind = TokenKind::kComma;
      break;
    case '.':
      tok.kind = TokenKind::kPeriod;
      break;
    case '=':
      tok.kind = TokenKind::kCompare;
      break;
    case '<':
    case '>':
      tok.kind = TokenKind::kCompare;
      if (c1 == '=') len = 2;
      break;
    case ':':
    case '?':
    case '!': {
      if (c1 != (c == '!' ? '=' : '-')) {
        return Fail(std::string("unexpected character '") + c + "'");
      }
      tok.kind = c == ':'   ? TokenKind::kIf
                 : c == '?' ? TokenKind::kQuery
                            : TokenKind::kCompare;
      len = 2;
      break;
    }
    case '\'': {  // quoted constant; may span lines
      size_t j = pos_ + 1;
      while (j < n && src_[j] != '\'') ++j;
      if (j >= n) return Fail("unterminated quoted constant");
      tok.kind = TokenKind::kLowerIdent;
      tok.text = src_.substr(pos_ + 1, j - pos_ - 1);
      for (size_t k = pos_ + 1; k < j; ++k) {
        if (src_[k] == '\n') {
          ++line_;
          line_start_ = k + 1;
        }
      }
      pos_ = j + 1;
      return tok;
    }
    default: {
      const uint8_t cls = ClassOf(c);
      if (!(cls & kIdentChar)) {
        return Fail(std::string("unexpected character '") + c + "'");
      }
      while (start + len < n && (ClassOf(src_[start + len]) & kIdentChar)) {
        ++len;
      }
      tok.kind = (cls & kUpperStart) ? TokenKind::kUpperIdent
                                     : TokenKind::kLowerIdent;
      break;
    }
  }
  tok.text = src_.substr(start, len);
  pos_ = start + len;
  return tok;
}

Status Lexer::Drain() {
  while (Next().kind != TokenKind::kEof) {
  }
  return status_;
}

}  // namespace binchain
