// High-level facade: load a binary-chain Datalog program, transform it to
// equations (Lemma 1), and answer queries with the graph-traversal engine.
// Handles all binding patterns of Section 3:
//   p(a, Y)  - direct evaluation;
//   p(X, b)  - evaluation of the inverted equation system from b;
//   p(a, b)  - p(a, Y) then membership test;
//   p(X, Y)  - evaluation from every candidate source constant;
//   p(X, X)  - p(X, Y) filtered to x = y.
#ifndef BINCHAIN_EVAL_QUERY_H_
#define BINCHAIN_EVAL_QUERY_H_

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "equations/lemma1.h"
#include "eval/engine.h"
#include "storage/database.h"

namespace binchain {

class EvalArtifacts;

struct QueryAnswer {
  std::vector<Tuple> tuples;  // sorted, deduplicated, full query arity
  EvalStats stats;
  /// EDB tuple retrievals during this query (same value as stats.fetches):
  /// the per-relation counters plus the calling thread's frozen-mode
  /// counter, so it is exact whether or not the database is frozen.
  uint64_t fetches = 0;
};

/// Inserts ground facts into their (created-on-demand) relations. Shared by
/// QueryEngine::LoadProgram, the query service, and the CLI drivers. Each
/// predicate's relation is resolved once and reserved for all of its
/// facts; relations are created in first-appearance order.
void LoadFactsInto(Database& db, const std::vector<Literal>& facts);

/// Everything derived from the *program* alone — the Lemma 1 equation
/// system, the inverted system, and (optionally) the compiled machines
/// M(e_p) of both. Immutable once built, so one instance is shared by every
/// worker of a query service: per-worker state shrinks to the view
/// registry, term pool, and engine scratch. (The ROADMAP's "share one
/// compiled machine/equation set across workers".)
struct PreparedProgram {
  Program program;  // rules only; facts and queries stripped
  Lemma1Result lemma1;
  EquationSystem combined;  // forward + inverted equations
  std::unordered_map<SymbolId, SymbolId> inverse_of;
  std::unordered_map<SymbolId, Nfa> forward_machines;  // empty => lazy
  std::unordered_map<SymbolId, Nfa> inverse_machines;  // empty => lazy
};

/// Loads `program`'s facts into `db`, transforms the rules (Lemma 1 plus
/// the inverted system), and — with `compile_machines` — compiles M(e_p)
/// for every predicate of both systems. Interns symbols, so call while the
/// database still accepts them (pre-Freeze). Facts load straight from
/// `program`; only the rules are copied into the plan.
Result<std::shared_ptr<const PreparedProgram>> PrepareProgram(
    Database* db, const Program& program, bool compile_machines);

class QueryEngine {
 public:
  /// `db` must outlive the engine; program facts are loaded into it.
  explicit QueryEngine(Database* db);

  /// Worker constructor: adopts a shared immutable plan instead of
  /// transforming and compiling privately. Only the per-worker view
  /// registry, term pool, and scratch are built — construction does no
  /// program work at all.
  QueryEngine(Database* db, std::shared_ptr<const PreparedProgram> plan);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  ~QueryEngine();

  /// Parses `text`, storing rules and loading facts into the database.
  /// May be called once per engine.
  Status LoadProgramText(std::string_view text);
  Status LoadProgram(const Program& program);

  /// Eagerly completes every lazy preparation step that would otherwise run
  /// on first use: the compiled machines M(e_p) of both equation systems
  /// (no-ops for machines already in the shared plan). Called by the query
  /// service before Database::Freeze() so no symbol interning or
  /// shared-cache fill happens on worker threads.
  Status PrepareAll();

  /// Re-points the engine at another database epoch (a BeginDelta successor
  /// of the database it was built over, or any snapshot extending the same
  /// symbol-id space). EDB views rebind in place; compiled machines, the
  /// term pool, and the rex cache survive untouched — nothing is recomputed
  /// per query after an epoch bump. `db` must be frozen (the engine only
  /// reads it). If the epoch carries an EvalArtifacts set
  /// (Database::artifact), the engine adopts it: EDB probes serve from the
  /// epoch-shared adjacency memos and all-free queries from the shared
  /// closure / candidate-source caches, so only worker-private scratch
  /// remains per engine.
  Status BindSnapshot(const Database& db);

  /// The epoch-shared artifacts currently bound (nullptr outside a
  /// snapshot-serving context).
  const std::shared_ptr<const EvalArtifacts>& artifacts() const {
    return artifacts_;
  }

  /// The Lemma 1 equation system (available after loading).
  const EquationSystem& equations() const;
  const Program& program() const { return plan_->program; }
  ViewRegistry& views() { return *views_; }

  Result<QueryAnswer> Query(std::string_view literal_text,
                            const EvalOptions& options = {});
  Result<QueryAnswer> Query(const Literal& query,
                            const EvalOptions& options = {});

 private:
  void InitFromPlan();
  /// Candidate constants for the all-free sweep: the epoch-shared cache
  /// when artifacts are bound (computed once per epoch, by whichever worker
  /// gets there first), a private walk otherwise. The reference is stable
  /// for the duration of one query (shared-cell storage, or the engine's
  /// own scratch below).
  const std::vector<SymbolId>& CandidateSources(SymbolId pred);
  std::vector<SymbolId> ComputeCandidateSources(SymbolId pred);

  /// All-free queries over pure-closure equations (e*.e or e.e*, e a base
  /// predicate) are answered with one shared Tarjan condensation pass;
  /// returns false when the equation has another shape. A cancellation
  /// mid-pass still returns true — handled, with stats.cancelled set and an
  /// empty partial answer — and never publishes to the epoch-shared cache;
  /// falling back to the per-source sweep would only burn more of an
  /// already-expired budget.
  bool TryAllPairsClosure(SymbolId pred, const Literal& query,
                          const EvalOptions& options, QueryAnswer* answer);

  Database* db_;
  std::shared_ptr<const PreparedProgram> plan_;
  std::shared_ptr<const EvalArtifacts> artifacts_;  // epoch-shared, or null
  std::unique_ptr<ViewRegistry> views_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Engine> inv_engine_;
  /// Backing store for CandidateSources when no shared cache serves it.
  std::vector<SymbolId> source_scratch_;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_QUERY_H_
