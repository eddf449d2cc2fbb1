// Loader equivalence: the load path (ParseProgram, then LoadFactsInto's
// per-run fact loading, then Freeze's bulk index builds) must produce the
// storage a row-by-row build produces. For every workload generator and
// every examples/*.dl program this checks
//   - the ProgramToString rendering,
//   - the relations and their row order,
//   - the ForEachMatch enumeration order for every mask and key,
// against a row-by-row reference database, and pins each rendering and
// enumeration with a digest recorded from the previous loader, so a change
// of parse output or enumeration order shows up as a digest mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "datalog/printer.h"
#include "eval/query.h"
#include "storage/database.h"
#include "workloads/workloads.h"

#ifndef BINCHAIN_SOURCE_DIR
#error "BINCHAIN_SOURCE_DIR must name the source tree (set by CMakeLists.txt)"
#endif

namespace binchain {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string RowText(TupleRef t, const SymbolTable& symbols) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) out += ", ";
    out += symbols.Name(t[i]);
  }
  return out + ")";
}

/// Every relation's rows as `pred(a, b).` lines, relations in creation
/// order and rows in insertion order: the text a loader must rebuild.
std::string FactText(const Database& db) {
  std::string out;
  for (const std::string& name : db.relation_names()) {
    for (TupleRef t : db.Find(name)->tuples()) {
      out += name + RowText(t, db.symbols()) + ".\n";
    }
  }
  return out;
}

/// For every relation, mask and distinct key (drawn from the relation's
/// rows, in row order), the rows ForEachMatch enumerates, by name. Names,
/// not ids, so databases that interned in different orders compare.
std::string MatchListing(const Database& db) {
  std::string out;
  for (const std::string& name : db.relation_names()) {
    const Relation& rel = *db.Find(name);
    const uint32_t masks = 1u << rel.arity();
    for (uint32_t mask = 1; mask < masks; ++mask) {
      std::set<std::vector<SymbolId>> seen;
      for (TupleRef key : rel.tuples()) {
        std::vector<SymbolId> bound;
        for (size_t i = 0; i < key.size(); ++i) {
          if (mask & (1u << i)) bound.push_back(key[i]);
        }
        if (!seen.insert(bound).second) continue;
        out += name + "/" + std::to_string(mask) + RowText(key, db.symbols()) +
               ":";
        rel.ForEachMatch(mask, key, [&](TupleRef t) {
          out += RowText(t, db.symbols());
        });
        out += "\n";
      }
    }
  }
  return out;
}

struct Loaded {
  std::string printed;  // ProgramToString of the parsed program
  std::string facts;    // FactText of the loaded, frozen database
  std::string matches;  // MatchListing of the same
};

/// The load path under test: parse, load the facts (LoadFactsInto is
/// PrepareProgram's loading step; called directly because PrepareProgram
/// rejects the non-binary-chain samples' rules), freeze.
Loaded Load(const std::string& text) {
  Database db;
  auto parsed = ParseProgram(text, db.symbols());
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  if (!parsed.ok()) return {};
  Loaded out;
  out.printed = ProgramToString(parsed.value(), db.symbols());
  LoadFactsInto(db, parsed.value().facts);
  db.Freeze();
  out.facts = FactText(db);
  out.matches = MatchListing(db);
  return out;
}

/// The row-by-row reference: one AddFact per fact, frozen.
void ExpectMatchesReference(Database& reference, const Loaded& loaded) {
  reference.Freeze();
  EXPECT_EQ(loaded.facts, FactText(reference));
  EXPECT_EQ(loaded.matches, MatchListing(reference));
}

struct Sample {
  const char* name;
  const char* rules;
  std::function<void(Database&)> build;
  const char* printed_digest;
  const char* matches_digest;
};

TEST(LoaderTest, WorkloadGeneratorsLoadLikeRowByRowInserts) {
  using namespace workloads;
  const Sample samples[] = {
      {"fig7a", SgProgramText(), [](Database& db) { Fig7a(db, 24); },
       "3f21e7e517067787", "036bb1728424f3cb"},
      {"fig7b", SgProgramText(), [](Database& db) { Fig7b(db, 24); },
       "d388cfa24913a676", "bd5989767d00b97d"},
      {"fig7c", SgProgramText(), [](Database& db) { Fig7c(db, 24); },
       "1ed041e462056f92", "aa8f56272cafb28c"},
      {"fig8", SgProgramText(), [](Database& db) { Fig8(db, 5, 7); },
       "ef9b5854b28f88ab", "fd4da90589385e14"},
      {"chain", PathProgramText(),
       [](Database& db) { Chain(db, "e", "u", 40); }, "9de9dbc274fceea6",
       "6773810025e83b49"},
      {"uptree", PathProgramText(),
       [](Database& db) { UpTree(db, "e", "t", 5); }, "26dec1d9874c70fe",
       "87c52296d54a864d"},
      {"random_graph", PathProgramText(),
       [](Database& db) {
         Rng rng(7);
         RandomGraph(db, "e", "n", 40, 160, rng);
       },
       "bca27faf39ba1c2f", "8008fcadba326dc4"},
      {"random_dag", PathProgramText(),
       [](Database& db) {
         Rng rng(8);
         RandomDag(db, "e", "d", 40, 160, rng);
       },
       "02452a770177c317", "b4ca85d3762cc36b"},
      {"flights", FlightProgramText(),
       [](Database& db) {
         FlightSpec spec;
         spec.airports = 6;
         spec.flights = 60;
         spec.horizon = 30;
         BuildFlights(db, spec);
       },
       "b379081e1df0de9d", "8f08ef613fe0809e"},
      {"alternating", AlternatingProgramText(),
       [](Database& db) {
         Chain(db, "b0", "x", 20);
         Chain(db, "b1", "y", 20);
       },
       "d2ef597319ac96ca", "39e1197c5d351efa"},
      {"non_chain", NonChainProgramText(),
       [](Database& db) {
         db.AddFact("b1", {"a", "b"});
         db.AddFact("b0", {"b", "c"});
       },
       "30008f230526f565", "a7b516fa76e62296"},
  };
  for (const Sample& s : samples) {
    SCOPED_TRACE(s.name);
    Database reference;
    s.build(reference);
    const std::string facts = FactText(reference);
    ASSERT_FALSE(facts.empty());
    const Loaded loaded = Load(std::string(s.rules) + facts);
    // The rendering lists the rules, then every fact exactly as written.
    ASSERT_GE(loaded.printed.size(), facts.size());
    EXPECT_EQ(loaded.printed.substr(loaded.printed.size() - facts.size()),
              facts);
    ExpectMatchesReference(reference, loaded);
    EXPECT_EQ(Hex(Fnv1a(loaded.printed)), s.printed_digest);
    EXPECT_EQ(Hex(Fnv1a(loaded.matches)), s.matches_digest);
  }
}

TEST(LoaderTest, ExampleProgramsLoadLikeRowByRowInserts) {
  // Digests by file name, recorded from the previous loader.
  const std::pair<const char*, std::pair<const char*, const char*>>
      pinned[] = {
          {"same_generation.dl", {"84fed60e2eadb94b", "7e6297c4bf0faef6"}},
          {"streaming_ladder.dl", {"409be456445728d4", "e9685bd3ac659d9d"}},
      };
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(BINCHAIN_SOURCE_DIR) / "examples")) {
    if (entry.path().extension() == ".dl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), std::size(pinned));
  for (size_t i = 0; i < files.size(); ++i) {
    SCOPED_TRACE(files[i].string());
    ASSERT_EQ(files[i].filename().string(), pinned[i].first);
    std::ifstream in(files[i]);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const Loaded loaded = Load(text);
    Database reference;
    auto parsed = ParseProgram(text, reference.symbols());
    ASSERT_TRUE(parsed.ok());
    for (const Literal& f : parsed.value().facts) {
      std::vector<std::string> args;
      for (const Term& t : f.args) {
        args.push_back(reference.symbols().Name(t.symbol));
      }
      reference.AddFact(reference.symbols().Name(f.predicate), args);
    }
    ExpectMatchesReference(reference, loaded);
    EXPECT_EQ(Hex(Fnv1a(loaded.printed)), pinned[i].second.first);
    EXPECT_EQ(Hex(Fnv1a(loaded.matches)), pinned[i].second.second);
  }
}

}  // namespace
}  // namespace binchain
