#include "datalog/printer.h"

namespace binchain {

std::string TermToString(const Term& t, const SymbolTable& symbols) {
  const std::string& name = symbols.Name(t.symbol);
  // Anonymous variables print as written, so the output re-parses.
  if (t.IsVar() && name.compare(0, kAnonymousVarPrefix.size(),
                                kAnonymousVarPrefix) == 0) {
    return "_";
  }
  return name;
}

std::string LiteralToString(const Literal& lit, const SymbolTable& symbols) {
  const std::string& pred = symbols.Name(lit.predicate);
  if (IsBuiltinName(pred) && lit.args.size() == 2) {
    return TermToString(lit.args[0], symbols) + " " + pred + " " +
           TermToString(lit.args[1], symbols);
  }
  std::string out = pred + "(";
  for (size_t i = 0; i < lit.args.size(); ++i) {
    if (i) out += ", ";
    out += TermToString(lit.args[i], symbols);
  }
  out += ")";
  return out;
}

std::string RuleToString(const Rule& r, const SymbolTable& symbols) {
  std::string out = LiteralToString(r.head, symbols);
  if (!r.body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i) out += ", ";
      out += LiteralToString(r.body[i], symbols);
    }
  }
  out += ".";
  return out;
}

std::string ProgramToString(const Program& p, const SymbolTable& symbols) {
  std::string out;
  for (const Rule& r : p.rules) {
    out += RuleToString(r, symbols);
    out += "\n";
  }
  for (const Literal& f : p.facts) {
    out += LiteralToString(f, symbols);
    out += ".\n";
  }
  for (const Literal& q : p.queries) {
    out += "?- " + LiteralToString(q, symbols) + ".\n";
  }
  return out;
}

}  // namespace binchain
