// Answer oracle: the seminaive baseline (src/baselines) on a cold rebuild
// of one epoch's facts, reduced to a count and an order-independent hash
// per query key — the same reduction the client applies to each response.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// An answer set, reduced: tuple count and the sum of TupleHash over its
/// tuples (a multiset hash, so a duplicate tuple changes it).
struct AnswerDigest {
  uint64_t count = 0;
  uint64_t hash = 0;

  void Add(std::string_view source, std::string_view target);
  bool operator==(const AnswerDigest& o) const {
    return count == o.count && hash == o.hash;
  }
  bool operator!=(const AnswerDigest& o) const { return !(*this == o); }
};

/// Parses `text` (rules and facts) into a fresh database, runs the
/// seminaive fixpoint, and returns the expected digest of every key,
/// indexed like `keys`. On failure returns an empty vector and sets
/// `*error`.
std::vector<AnswerDigest> ExpectedAnswers(const std::string& text,
                                          const std::vector<QueryKey>& keys,
                                          std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
