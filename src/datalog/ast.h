// Datalog abstract syntax: terms, literals, rules, programs.
//
// Terminology follows the paper (Section 2): a *fact* is a rule with an
// empty body and all-constant head; a *base predicate* appears only in
// facts; a *derived predicate* appears in the head of a rule with a
// nonempty body. Built-in comparison predicates (<, <=, >, >=, =, !=) are
// allowed in bodies under the paper's safety restriction.
#ifndef BINCHAIN_DATALOG_AST_H_
#define BINCHAIN_DATALOG_AST_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/symbol_table.h"

namespace binchain {

/// A term is a variable or a constant; both are interned symbols.
struct Term {
  enum class Kind { kVariable, kConstant };
  Kind kind;
  SymbolId symbol;

  static Term Var(SymbolId s) { return {Kind::kVariable, s}; }
  static Term Const(SymbolId s) { return {Kind::kConstant, s}; }
  bool IsVar() const { return kind == Kind::kVariable; }
  bool IsConst() const { return kind == Kind::kConstant; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.symbol == b.symbol;
  }
};

/// Spelling prefix of the fresh variable the parser makes for each `_`.
/// '#' never occurs in a lexed identifier, so no variable the user names
/// can capture an anonymous one.
inline constexpr std::string_view kAnonymousVarPrefix = "_#";

/// p(t1, ..., tn). Built-in predicates are ordinary literals whose predicate
/// symbol spells a comparison operator.
struct Literal {
  SymbolId predicate = 0;
  std::vector<Term> args;

  size_t arity() const { return args.size(); }
};

/// Built-in comparison support.
bool IsBuiltinName(std::string_view name);
enum class Builtin { kLt, kLe, kGt, kGe, kEq, kNe };
std::optional<Builtin> BuiltinFromName(std::string_view name);

/// head :- body. An empty body with an all-constant head is a fact.
struct Rule {
  Literal head;
  std::vector<Literal> body;

  bool IsFact() const;
};

/// A parsed program: intensional rules, extensional facts, optional queries
/// (`?- p(a, Y).`).
struct Program {
  std::vector<Rule> rules;      // nonempty-body rules (intensional database)
  std::vector<Literal> facts;   // ground atoms (extensional database)
  std::vector<Literal> queries;

  /// Predicates occurring in rule heads (derived predicates), de-duplicated,
  /// in first-appearance order.
  std::vector<SymbolId> DerivedPredicates() const;

  /// Predicates occurring in bodies or facts but never in rule heads.
  /// Built-in comparison predicates are excluded.
  std::vector<SymbolId> BasePredicates(const SymbolTable& symbols) const;
};

}  // namespace binchain

#endif  // BINCHAIN_DATALOG_AST_H_
