#include "datalog/parser.h"

#include <string>
#include <utility>
#include <vector>

#include "datalog/lexer.h"

namespace binchain {
namespace {

/// Recursive descent over a pull lexer, one token of lookahead (two in
/// ParseBodyAtom). Every failure goes through Finish(), which reports the
/// source's first lex error if it has one, else the parse error, so the
/// message never depends on how far parsing got.
class Parser {
 public:
  Parser(std::string_view src, SymbolTable& symbols)
      : lexer_(src), symbols_(symbols) {
    cur_ = lexer_.Next();
  }

  Result<Program> ParseAll() {
    Program program;
    while (!At(TokenKind::kEof)) {
      if (At(TokenKind::kQuery)) {
        Next();
        auto lit = ParseAtom();
        if (!lit.ok()) return Finish(lit.status());
        if (auto s = Expect(TokenKind::kPeriod); !s.ok()) return Finish(s);
        program.queries.push_back(lit.take());
        continue;
      }
      auto head = ParseAtom();
      if (!head.ok()) return Finish(head.status());
      Rule rule;
      rule.head = head.take();
      if (At(TokenKind::kIf)) {
        Next();
        while (true) {
          auto lit = ParseBodyAtom();
          if (!lit.ok()) return Finish(lit.status());
          rule.body.push_back(lit.take());
          if (At(TokenKind::kComma)) {
            Next();
            continue;
          }
          break;
        }
      }
      if (auto s = Expect(TokenKind::kPeriod); !s.ok()) return Finish(s);
      if (rule.IsFact()) {
        program.facts.push_back(std::move(rule.head));
      } else {
        // Note: an empty-body clause with variables (e.g. the reflexivity
        // rule `p(X, X).`) is an intensional rule, not a fact.
        program.rules.push_back(std::move(rule));
      }
    }
    if (Status s = lexer_.status(); !s.ok()) return s;
    return program;
  }

  Result<Literal> ParseSingleLiteral() {
    auto lit = ParseAtom();
    if (!lit.ok()) return Finish(lit.status());
    if (!At(TokenKind::kEof)) {
      return Finish(Error("trailing input after literal"));
    }
    if (Status s = lexer_.status(); !s.ok()) return s;
    return lit;
  }

 private:
  const Token& Cur() const { return cur_; }
  bool At(TokenKind k) const { return cur_.kind == k; }
  void Next() {
    if (has_peek_) {
      cur_ = peek_;
      has_peek_ = false;
    } else {
      cur_ = lexer_.Next();
    }
  }
  const Token& Peek() {
    if (!has_peek_) {
      peek_ = lexer_.Next();
      has_peek_ = true;
    }
    return peek_;
  }

  /// A parse failure's final status: a lex error anywhere in the source
  /// takes precedence. Either the parser tripped over the kEof the lexer
  /// yields at that error, or the error lies further on.
  Status Finish(Status parse_error) {
    if (Status lex = lexer_.Drain(); !lex.ok()) return lex;
    return parse_error;
  }

  Status Error(const std::string& msg) const {
    const Token& t = Cur();
    return Status::InvalidArgument("parse error at " + std::to_string(t.line) +
                                   ":" + std::to_string(t.col) + ": " + msg);
  }

  std::string CurText() const { return std::string(Cur().text); }

  Status Expect(TokenKind k) {
    if (!At(k)) {
      return Error("unexpected token '" + CurText() + "'");
    }
    Next();
    return Status::Ok();
  }

  Result<Term> ParseTerm() {
    if (At(TokenKind::kLowerIdent)) {
      Term t = Term::Const(symbols_.Intern(Cur().text));
      Next();
      return t;
    }
    if (At(TokenKind::kUpperIdent)) {
      Term t = Term::Var(
          Cur().text == "_"
              ? symbols_.Intern(std::string(kAnonymousVarPrefix) +
                                std::to_string(fresh_counter_++))
              : symbols_.Intern(Cur().text));
      Next();
      return t;
    }
    return Error("expected a term, got '" + CurText() + "'");
  }

  /// predname(t1, ..., tn)
  Result<Literal> ParseAtom() {
    if (!At(TokenKind::kLowerIdent)) {
      return Error("expected a predicate name, got '" + CurText() + "'");
    }
    Literal lit;
    lit.predicate = symbols_.Intern(Cur().text);
    Next();
    if (auto s = Expect(TokenKind::kLParen); !s.ok()) return s;
    // Terms collect in a reused scratch vector, so the literal's own
    // argument vector is allocated once at its final size.
    args_.clear();
    if (!At(TokenKind::kRParen)) {
      while (true) {
        auto t = ParseTerm();
        if (!t.ok()) return t.status();
        args_.push_back(t.value());
        if (At(TokenKind::kComma)) {
          Next();
          continue;
        }
        break;
      }
    }
    if (auto s = Expect(TokenKind::kRParen); !s.ok()) return s;
    lit.args.assign(args_.begin(), args_.end());
    return lit;
  }

  /// Either an atom or an infix comparison `term OP term`.
  Result<Literal> ParseBodyAtom() {
    // Lookahead: lower ident followed by '(' is an atom; otherwise the token
    // starts a term of an infix comparison.
    if (At(TokenKind::kLowerIdent) && Peek().kind == TokenKind::kLParen) {
      return ParseAtom();
    }
    auto lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    if (!At(TokenKind::kCompare)) {
      return Error("expected comparison operator");
    }
    Literal lit;
    lit.predicate = symbols_.Intern(Cur().text);
    Next();
    auto rhs = ParseTerm();
    if (!rhs.ok()) return rhs.status();
    lit.args = {lhs.value(), rhs.value()};
    return lit;
  }

  Lexer lexer_;
  SymbolTable& symbols_;
  Token cur_{};
  Token peek_{};
  bool has_peek_ = false;
  std::vector<Term> args_;
  int fresh_counter_ = 0;
};

}  // namespace

Result<Program> ParseProgram(std::string_view src, SymbolTable& symbols) {
  return Parser(src, symbols).ParseAll();
}

Result<Literal> ParseLiteral(std::string_view src, SymbolTable& symbols) {
  return Parser(src, symbols).ParseSingleLiteral();
}

}  // namespace binchain
