#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "datalog/printer.h"

namespace binchain {
namespace {

Program MustParse(const std::string& text, SymbolTable& symbols) {
  auto r = ParseProgram(text, symbols);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.take();
}

TEST(ParserTest, ParsesRulesFactsAndQueries) {
  SymbolTable symbols;
  Program p = MustParse(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n"
      "up(a, b).\n"
      "?- sg(a, Y).\n",
      symbols);
  EXPECT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.facts.size(), 1u);
  EXPECT_EQ(p.queries.size(), 1u);
  EXPECT_EQ(p.rules[1].body.size(), 3u);
}

TEST(ParserTest, DistinguishesVariablesAndConstants) {
  SymbolTable symbols;
  Program p = MustParse("r(X, a, 'Quoted Const', 42) :- b(X).\n", symbols);
  const Literal& head = p.rules[0].head;
  EXPECT_TRUE(head.args[0].IsVar());
  EXPECT_TRUE(head.args[1].IsConst());
  EXPECT_TRUE(head.args[2].IsConst());
  EXPECT_EQ(symbols.Name(head.args[2].symbol), "Quoted Const");
  EXPECT_TRUE(head.args[3].IsConst());
}

TEST(ParserTest, InfixComparisonsBecomeLiterals) {
  SymbolTable symbols;
  Program p = MustParse("r(X, Y) :- b(X, Y), X < Y, X != Y.\n", symbols);
  ASSERT_EQ(p.rules[0].body.size(), 3u);
  EXPECT_EQ(symbols.Name(p.rules[0].body[1].predicate), "<");
  EXPECT_EQ(symbols.Name(p.rules[0].body[2].predicate), "!=");
}

// Each `_` is a fresh variable that no user variable can capture, whatever
// the user names it (`_G0`, `_0`).
TEST(ParserTest, AnonymousVariablesAreFresh) {
  SymbolTable symbols;
  Program p = MustParse("r(X) :- b(X, _), c(_G0, X), d(_0, _).\n", symbols);
  const Rule& r = p.rules[0];
  SymbolId anon1 = r.body[0].args[1].symbol;
  SymbolId user_g0 = r.body[1].args[0].symbol;
  SymbolId user_0 = r.body[2].args[0].symbol;
  SymbolId anon2 = r.body[2].args[1].symbol;
  EXPECT_NE(anon1, anon2);
  EXPECT_NE(anon1, user_g0);
  EXPECT_NE(anon2, user_g0);
  EXPECT_NE(anon1, user_0);
  EXPECT_EQ(symbols.Name(user_g0), "_G0");
  // Anonymous variables print as `_`, so the rendering re-parses to an
  // equivalent rule.
  std::string text = ProgramToString(p, symbols);
  EXPECT_EQ(text, "r(X) :- b(X, _), c(_G0, X), d(_0, _).\n");
  Program p2 = MustParse(text, symbols);
  EXPECT_EQ(ProgramToString(p2, symbols), text);
}

TEST(ParserTest, CommentsAreIgnored) {
  SymbolTable symbols;
  Program p = MustParse("% a comment\nr(a, b). % trailing\n", symbols);
  EXPECT_EQ(p.facts.size(), 1u);
}

TEST(ParserTest, ReflexiveRuleIsARuleNotAFact) {
  SymbolTable symbols;
  Program p = MustParse("p(X, X).\n", symbols);
  EXPECT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.facts.size(), 0u);
}

TEST(ParserTest, ReportsErrorsWithPosition) {
  SymbolTable symbols;
  auto r = ParseProgram("p(X :- q(X).\n", symbols);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("1:"), std::string::npos);
}

// Exact messages, positions included. Columns count bytes from 1 ('\r'
// and the characters of a quoted constant included); lines advance on
// '\n' only, inside quoted constants too. When the input holds a lex
// error anywhere, the first lex error wins over any parse error.
TEST(ParserTest, ErrorMessagesArePinned) {
  struct Case {
    const char* src;
    const char* msg;
  };
  const Case cases[] = {
      // Lines after the first.
      {"a(x).\nb(y).\n  c(z) :- d(z\n.\n",
       "parse error at 4:1: unexpected token '.'"},
      {"a(x).\nq(b) :- r(b), $.\n",
       "lex error at 2:15: unexpected character '$'"},
      {"p(X) :- q(X) r.\n", "parse error at 1:14: unexpected token 'r'"},
      {"?- q(X)\n", "parse error at 2:1: unexpected token ''"},
      {"p(a", "parse error at 1:4: unexpected token ''"},
      // After % comments.
      {"% header line\nr(a, b). % trailing\n  s(c d).\n",
       "parse error at 3:7: unexpected token 'd'"},
      {"% only a comment\n% another\n   @\n",
       "lex error at 3:4: unexpected character '@'"},
      // CRLF line endings: '\r' is whitespace occupying one column.
      {"r(a, b).\r\ns(c, d).\r\n  t(e f).\r\n",
       "parse error at 3:7: unexpected token 'f'"},
      {"r(a, b).\r\n\r\n t(e, #).\r\n",
       "lex error at 3:7: unexpected character '#'"},
      // After a quoted constant spanning newlines.
      {"p('multi\nline', x).\nq(y) z.\n",
       "parse error at 3:6: unexpected token 'z'"},
      {"p('two\nnew\nlines').  r(s) &\n",
       "lex error at 3:16: unexpected character '&'"},
      {"p('x\ny', Z) :- q(Z), 'lit\nx' < .\n",
       "parse error at 3:6: expected a term, got '.'"},
      {"p('open\nquote", "lex error at 1:3: unterminated quoted constant"},
      // A lex error later in the input wins over an earlier parse error.
      {"p(a) q(b).\n$", "lex error at 2:1: unexpected character '$'"},
      {"p(a) :- q(a), !x.\n", "lex error at 1:15: unexpected character '!'"},
      {"p(X) :- q(X), X.\n",
       "parse error at 1:16: expected comparison operator"},
      {"p(a) :- X < b c.\n", "parse error at 1:15: unexpected token 'c'"},
      {"X(a).\n", "parse error at 1:1: expected a predicate name, got 'X'"},
      {"p(a, ).\n", "parse error at 1:6: expected a term, got ')'"},
  };
  for (const Case& c : cases) {
    SymbolTable symbols;
    auto r = ParseProgram(c.src, symbols);
    ASSERT_FALSE(r.ok()) << c.src;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.src;
    EXPECT_EQ(r.status().message(), c.msg) << c.src;
  }

  const Case literal_cases[] = {
      {"sg(a, Y) extra", "parse error at 1:10: trailing input after literal"},
      {"sg(a,\n Y", "parse error at 2:3: unexpected token ''"},
      {"sg(a, Y).", "parse error at 1:9: trailing input after literal"},
      {"", "parse error at 1:1: expected a predicate name, got ''"},
      {"sg(a, 'q\nr') %\n)",
       "parse error at 3:1: trailing input after literal"},
      {"sg(a ?", "lex error at 1:6: unexpected character '?'"},
  };
  for (const Case& c : literal_cases) {
    SymbolTable symbols;
    auto r = ParseLiteral(c.src, symbols);
    ASSERT_FALSE(r.ok()) << c.src;
    EXPECT_EQ(r.status().message(), c.msg) << c.src;
  }
}

TEST(ParserTest, RejectsUnterminatedQuote) {
  SymbolTable symbols;
  auto r = ParseProgram("p('oops).\n", symbols);
  EXPECT_FALSE(r.ok());
}

TEST(PrinterTest, RoundTripsThroughParser) {
  SymbolTable symbols;
  Program p = MustParse(
      "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n"
      "cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1, "
      "cnx(D1, DT1, D, AT).\nup(a, b).\n",
      symbols);
  std::string text = ProgramToString(p, symbols);
  Program p2 = MustParse(text, symbols);
  EXPECT_EQ(ProgramToString(p2, symbols), text);
}

TEST(AnalysisTest, ClassifiesSameGeneration) {
  SymbolTable symbols;
  Program p = MustParse(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).\n",
      symbols);
  ProgramAnalysis a(p, symbols);
  SymbolId sg = *symbols.Find("sg");
  SymbolId up = *symbols.Find("up");
  EXPECT_TRUE(a.IsDerived(sg));
  EXPECT_TRUE(a.IsBase(up));
  EXPECT_TRUE(a.IsRecursivePredicate(sg));
  EXPECT_TRUE(a.IsLinearProgram());
  EXPECT_TRUE(a.IsBinaryChainProgram());
  EXPECT_FALSE(a.IsRegularProgram());  // sg is neither left- nor right-linear
  EXPECT_TRUE(a.BodyHasAtMostOneDerived());
}

TEST(AnalysisTest, TransitiveClosureIsRegular) {
  SymbolTable symbols;
  Program p = MustParse(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Z) :- e(X, Y), path(Y, Z).\n",
      symbols);
  ProgramAnalysis a(p, symbols);
  SymbolId path = *symbols.Find("path");
  EXPECT_TRUE(a.IsRightLinearPredicate(path));
  EXPECT_FALSE(a.IsLeftLinearPredicate(path));
  EXPECT_TRUE(a.IsRegularProgram());
}

TEST(AnalysisTest, MutualRecursionDetected) {
  SymbolTable symbols;
  Program p = MustParse(
      "p(X, Y) :- a(X, Z), q(Z, Y).\n"
      "q(X, Y) :- b(X, Z), p(Z, Y).\n"
      "r(X, Y) :- p(X, Y).\n",
      symbols);
  ProgramAnalysis a(p, symbols);
  SymbolId sp = *symbols.Find("p");
  SymbolId sq = *symbols.Find("q");
  SymbolId sr = *symbols.Find("r");
  EXPECT_TRUE(a.MutuallyRecursive(sp, sq));
  EXPECT_FALSE(a.MutuallyRecursive(sp, sr));
  EXPECT_FALSE(a.IsRecursivePredicate(sr));
  auto classes = a.MutualRecursionClasses();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 2u);
}

TEST(AnalysisTest, NonLinearRuleDetected) {
  SymbolTable symbols;
  Program p = MustParse("t(X, Z) :- t(X, Y), t(Y, Z).\nt(X, Y) :- e(X, Y).\n",
                        symbols);
  ProgramAnalysis a(p, symbols);
  EXPECT_FALSE(a.IsLinearProgram());
}

TEST(AnalysisTest, BinaryChainRuleShapes) {
  SymbolTable symbols;
  Program p = MustParse(
      "ok(X, Z) :- a(X, Y), b(Y, Z).\n"
      "refl(X, X).\n"
      "swapped(X, Z) :- a(Y, X), b(Y, Z).\n"
      "repeated(X, Y) :- a(X, Y), b(Y, Y).\n",
      symbols);
  EXPECT_TRUE(ProgramAnalysis::IsBinaryChainRule(p.rules[0]));
  EXPECT_TRUE(ProgramAnalysis::IsBinaryChainRule(p.rules[1]));
  EXPECT_FALSE(ProgramAnalysis::IsBinaryChainRule(p.rules[2]));
  EXPECT_FALSE(ProgramAnalysis::IsBinaryChainRule(p.rules[3]));
}

TEST(AnalysisTest, SafetyChecks) {
  SymbolTable symbols;
  Program unsafe_head = MustParse("p(X, Y) :- b(X, X).\n", symbols);
  ProgramAnalysis a1(unsafe_head, symbols);
  EXPECT_FALSE(a1.CheckSafety().ok());

  SymbolTable symbols2;
  Program unsafe_builtin = MustParse("p(X, Y) :- b(X, Y), Z < Y.\n", symbols2);
  ProgramAnalysis a2(unsafe_builtin, symbols2);
  EXPECT_FALSE(a2.CheckSafety().ok());

  SymbolTable symbols3;
  Program safe = MustParse("p(X, Y) :- b(X, Y), X < Y.\n", symbols3);
  ProgramAnalysis a3(safe, symbols3);
  EXPECT_TRUE(a3.CheckSafety().ok());
}

TEST(AnalysisTest, LeftLinearProgram) {
  SymbolTable symbols;
  Program p = MustParse(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Z) :- path(X, Y), e(Y, Z).\n",
      symbols);
  ProgramAnalysis a(p, symbols);
  SymbolId path = *symbols.Find("path");
  EXPECT_TRUE(a.IsLeftLinearPredicate(path));
  EXPECT_FALSE(a.IsRightLinearPredicate(path));
  EXPECT_TRUE(a.IsRegularProgram());
}

}  // namespace
}  // namespace binchain
