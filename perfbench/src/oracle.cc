#include "oracle.h"

#include <map>
#include <unordered_map>

#include "baselines/bottom_up.h"
#include "datalog/parser.h"
#include "eval/query.h"
#include "storage/database.h"

namespace perfbench {
namespace {

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void AnswerDigest::Add(std::string_view source, std::string_view target) {
  uint64_t h = Fnv1a(source, 0xcbf29ce484222325ull);
  h = Fnv1a("\x1f", h);
  ++count;
  hash += Mix(Fnv1a(target, h));
}

std::vector<AnswerDigest> ExpectedAnswers(const std::string& text,
                                          const std::vector<QueryKey>& keys,
                                          std::string* error) {
  binchain::Database db;
  auto parsed = binchain::ParseProgram(text, db.symbols());
  if (!parsed.ok()) {
    *error = "oracle parse: " + parsed.status().message();
    return {};
  }
  binchain::Program program = parsed.take();
  binchain::LoadFactsInto(db, program.facts);
  auto idb = binchain::SeminaiveFixpoint(program, db, {}, nullptr);
  if (!idb.ok()) {
    *error = "oracle fixpoint: " + idb.status().message();
    return {};
  }

  // Per queried predicate: digests by bound source and by bound target.
  struct Index {
    std::unordered_map<std::string, AnswerDigest> by_source, by_target;
  };
  std::map<std::string, Index> index;
  for (const QueryKey& k : keys) {
    if (index.count(k.pred) != 0) continue;
    Index& ix = index[k.pred];
    auto sym = db.symbols().Find(k.pred);
    const binchain::Relation* rel = sym ? idb.value().Find(*sym) : nullptr;
    if (rel == nullptr) continue;
    for (binchain::TupleRef t : rel->tuples()) {
      const std::string& a = db.symbols().Name(t[0]);
      const std::string& b = db.symbols().Name(t[1]);
      ix.by_source[a].Add(a, b);
      ix.by_target[b].Add(a, b);
    }
  }
  std::vector<AnswerDigest> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const QueryKey& k = keys[i];
    const Index& ix = index[k.pred];
    const auto& side = k.source.empty() ? ix.by_target : ix.by_source;
    auto it = side.find(k.source.empty() ? k.target : k.source);
    if (it != side.end()) out[i] = it->second;
  }
  return out;
}

}  // namespace perfbench
