// Seeded mutation smoke for the Datalog parser: byte flips, truncations
// and splices of the checked-in example programs and of a generated fact
// text. Every ParseProgram / ParseLiteral outcome must be a value or an
// InvalidArgument carrying a positioned lex or parse error; anything else
// (a crash, an abort, a sanitizer report on a token view outliving its
// source) fails the run. The seed and iteration count are fixed, so a
// failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "datalog/printer.h"
#include "util/rng.h"
#include "workloads/workloads.h"

#ifndef BINCHAIN_SOURCE_DIR
#error "BINCHAIN_SOURCE_DIR must name the source tree (set by CMakeLists.txt)"
#endif

namespace binchain {
namespace {

constexpr uint64_t kSeed = 20240611;
constexpr int kIterations = 60000;

/// Bytes that steer the lexer into its interesting states, plus arbitrary
/// ones (NUL, high bytes).
constexpr char kAlphabet[] = "()'.,:-?!=<>%_\n\r\t aZ09#$\x7f\x80\xff";

std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(BINCHAIN_SOURCE_DIR) / "examples")) {
    if (entry.path().extension() == ".dl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    corpus.push_back(buf.str());
  }
  // A generated fact text: rules, facts with quoted and numeric constants,
  // comparisons, queries and a comment.
  std::string gen = workloads::FlightProgramText();
  for (int i = 0; i < 40; ++i) {
    std::string n = std::to_string(i);
    gen += "flight(p" + n + ", " + n + ", 'air port " + n + "', -" + n +
           ").\n";
    if (i % 7 == 0) {
      gen += "% every seventh\n?- cnx(p" + n + ", DT, D, AT).\n";
    }
  }
  corpus.push_back(gen);
  return corpus;
}

std::string Mutate(const std::vector<std::string>& corpus, Rng& rng) {
  std::string s = corpus[rng.Below(corpus.size())];
  const int edits = 1 + static_cast<int>(rng.Below(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.Below(4)) {
      case 0:  // flip a byte to an alphabet byte
        if (!s.empty()) {
          const size_t at = rng.Below(s.size());
          s[at] = kAlphabet[rng.Below(sizeof(kAlphabet) - 1)];
        }
        break;
      case 1:  // flip a byte to any byte
        if (!s.empty()) {
          const size_t at = rng.Below(s.size());
          s[at] = static_cast<char>(rng.Next());
        }
        break;
      case 2:  // truncate
        s.resize(rng.Below(s.size() + 1));
        break;
      default: {  // splice: a prefix of s, a slice of another input
        const std::string& other = corpus[rng.Below(corpus.size())];
        size_t cut = rng.Below(s.size() + 1);
        size_t from = rng.Below(other.size() + 1);
        size_t len = rng.Below(other.size() - from + 1);
        s = s.substr(0, cut) + other.substr(from, len);
        break;
      }
    }
  }
  return s;
}

void ExpectOkOrPositionedError(const Status& status, const std::string& in) {
  if (status.ok()) return;
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.message() << "\ninput: " << in;
  const std::string& m = status.message();
  ASSERT_TRUE(m.rfind("lex error at ", 0) == 0 ||
              m.rfind("parse error at ", 0) == 0)
      << m << "\ninput: " << in;
}

TEST(ParserMutationTest, MutatedInputsParseOrFailCleanly) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 3u);
  Rng rng(kSeed);
  int parsed_ok = 0;
  for (int i = 0; i < kIterations; ++i) {
    // A fresh copy per call: token views must never outlive their source.
    const std::string input = Mutate(corpus, rng);
    SymbolTable symbols;
    auto program = ParseProgram(std::string(input), symbols);
    ExpectOkOrPositionedError(program.ok() ? Status::Ok() : program.status(),
                              input);
    if (program.ok()) {
      ++parsed_ok;
      ProgramToString(program.value(), symbols);
    }
    // A literal-sized slice through ParseLiteral.
    const size_t from = rng.Below(input.size() + 1);
    const std::string slice = input.substr(from, rng.Below(64));
    auto literal = ParseLiteral(std::string(slice), symbols);
    ExpectOkOrPositionedError(literal.ok() ? Status::Ok() : literal.status(),
                              slice);
    if (HasFatalFailure()) return;
  }
  // The mutations must leave some inputs valid, or the ok path is untested.
  EXPECT_GT(parsed_ok, 0);
}

}  // namespace
}  // namespace binchain
