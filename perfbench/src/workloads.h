// Seeded inputs of the two benchmark workloads: the program text the
// serving stack loads, the query keys, the open-loop arrival schedule, the
// closed-loop request stream, and (live_durable) the fact batches that are
// committed to the WAL before set-up and published during the run.
//
// Every size and rate is a named constant of workloads.cc (the design
// record, perfbench/design.json, quotes them); everything here is a pure
// function of the workload, the seed and the phase lengths. The data (facts,
// hot sets, batches) comes from a fixed seed of its own, so only the traffic
// differs between seeds. The program under test receives only the generated
// text and requests.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// One query, as the wire names it: pred(source, target), empty = free.
struct QueryKey {
  std::string pred;
  std::string source;
  std::string target;
  bool cyclic = false;  // Figure 8 constant: sent with use_cyclic_bound
  std::string family;   // instance queried: fig7b, fig8, dag, path
  /// JSON body of a POST /v1/query for this key.
  std::string Body(bool stream) const;
};

/// A ground binary fact: {pred, arg0, arg1}.
using Fact = std::array<std::string, 3>;
using FactSet = std::set<Fact>;

struct FactOp {
  bool retract = false;
  Fact fact;
};

/// One publish: staged inserts and retractions, all on relations that
/// support a single predicate (`side`), never the same fact twice.
struct Batch {
  std::string side;  // "sg" or "path"
  std::vector<FactOp> ops;
};

struct Request {
  uint32_t key = 0;
  bool buffered = false;  // "stream": false
};

struct Workload {
  std::string name;
  std::string rules;   // program rules, no facts
  FactSet genesis;     // facts of the program text
  std::vector<QueryKey> keys;
  std::vector<double> open_due_ms;  // open-loop intended send offsets
  std::vector<Request> open;        // one per open_due_ms entry
  std::vector<Request> closed;      // cycled by the closed-loop phase
  std::vector<uint32_t> warm;       // keys issued before timing starts
  uint32_t probe = 0;               // key of each set-up's first query
  std::vector<Batch> logged;        // committed to the WAL before set-up
  std::vector<Batch> live;          // published during the run, in order
  double publish_interval_ms = 0;   // 0: no publisher
  // Traffic self-check: the measured phases' cache hit ratio must stay
  // below the ceiling.
  double max_hit_ratio = 1.0;
};

/// Builds `name` ("bound_uniform", "live_durable") for a
/// measured span of `open_seconds` + `closed_seconds`. Throws
/// std::invalid_argument on an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      double open_seconds, double closed_seconds);

/// The fact set after applying `batch` (later ops win, as in a publish).
void ApplyBatch(const Batch& batch, FactSet* facts);

/// Datalog source: `rules`, then one `pred(a, b).` line per fact.
std::string ProgramText(const std::string& rules, const FactSet& facts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
